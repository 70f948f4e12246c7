"""Run a single simulation point and summarise it.

This is the inner loop of every latency figure.  Historically this module
owned the build/drive/summarise pipeline; that now lives in
:class:`repro.sim.session.SimulationSession`, and :func:`run_point` is a
thin adapter kept as the stable entry point the sweep drivers (and the
parallel-sweep worker processes) call.
"""

from __future__ import annotations

from repro.sim.backend import DEFAULT_BACKEND
from repro.sim.records import RunSummary
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.workload import WorkloadSpec

__all__ = ["run_point"]


def run_point(spec: WorkloadSpec, bcast_mode: str = "clone",
              backend: str = DEFAULT_BACKEND) -> RunSummary:
    """Simulate one :class:`WorkloadSpec` point end to end."""
    config = RunConfig(spec=spec, backend=backend, bcast_mode=bcast_mode)
    return SimulationSession(config).run()
