"""Cycle simulation kernel.

This subpackage is the reproduction's substitute for OMNeT++ (which the
paper used for its flit-level simulator).  It provides:

* :mod:`repro.sim.rng` -- deterministic, named random-number streams so
  that every experiment is exactly reproducible from a single seed.
* :mod:`repro.sim.stats` -- online statistics (Welford mean/variance)
  and batch-means confidence intervals.
* :mod:`repro.sim.records` -- ``RunSummary``, the record of one
  simulation point.
* :mod:`repro.sim.backend` -- pluggable cycle-execution engines: the
  reference semantics and the array engine (see README.md in this
  directory).
* :mod:`repro.sim.session` -- :class:`RunConfig` / ``SimulationSession``,
  the single entry point experiments, benchmarks and the CLI run through.
  (Not imported here: it builds on :mod:`repro.core`, which itself
  imports this package -- import it as ``repro.sim.session``.)
* :mod:`repro.sim.replication` -- multi-seed replication:
  ``ReplicationPlan`` (seed spawning), ``ExecutionEngine``
  (process-sharded work units with deterministic ordering) and
  ``ReplicatedSummary`` (mean / stddev / 95% CI per metric).  (Also not
  imported here, for the same layering reason -- import it as
  ``repro.sim.replication``.)

The simulation is cycle-driven, on one clock (``Network.cycle``): one
``run_mix`` loop executes windows of cycles on either backend, and
probes and fault events are callbacks keyed by cycle number (README.md,
"Who drives a cycle").
"""

from repro.sim.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    ReferenceBackend,
    SimBackend,
    make_backend,
)
from repro.sim.records import RunSummary
from repro.sim.rng import RngStreams
from repro.sim.stats import BatchMeans, OnlineStats

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ReferenceBackend",
    "SimBackend",
    "make_backend",
    "RngStreams",
    "OnlineStats",
    "BatchMeans",
    "RunSummary",
]
