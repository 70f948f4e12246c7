"""Experiment drivers shared by the benchmarks, examples and tests.

* :mod:`repro.experiments.latency` -- run one (network, workload) point to
  a :class:`~repro.sim.records.RunSummary`.
* :mod:`repro.experiments.sweep` -- rate sweeps and figure-shaped
  parameter grids (Figs. 9/10/11).
* :mod:`repro.experiments.ascii_plot` -- terminal latency-vs-load plots
  (no matplotlib in the offline environment).
* :mod:`repro.experiments.csvout` -- CSV emission for every figure/table.
"""

from repro._lazy import lazy_exports

# imported on first use: ``sweep`` brings in the replication engine
# and multiprocessing, which a single run never needs
__getattr__ = lazy_exports(__name__, {
    ".ascii_plot": ("ascii_curves",),
    ".csvout": ("rows_to_csv", "write_csv"),
    ".latency": ("run_point",),
    ".sweep": ("compare_networks", "default_rates", "sweep_rates"),
})

__all__ = [
    "run_point",
    "default_rates",
    "sweep_rates",
    "compare_networks",
    "ascii_curves",
    "rows_to_csv",
    "write_csv",
]
