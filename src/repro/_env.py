"""Process defaults, set before anything imports numpy: ``repro``'s
``__init__`` imports this module first."""

import os

# The simulator makes no BLAS call, but numpy's import starts an OpenBLAS
# worker pool that spins for tens of ms of CPU; one thread starts none.
# A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
