"""``repro.obs``: opt-in observability for the simulator.

Deterministic, zero-overhead-when-off telemetry wired through every
backend:

* :mod:`repro.obs.probes` -- windowed time-series probes over live
  simulation state (buffer occupancy, link utilisation, stall census,
  injection/ejection rates, in-flight population), sampled natively
  from the array engine's flat numpy state or through the
  ``iter_buffers``/``iter_ports`` seam, with identical streams on all
  backends.
* :mod:`repro.obs.hist` -- HDR-style log-bucket latency histograms
  feeding p50/p95/p99/max into ``RunSummary.extra["latency_hist"]``.
* :mod:`repro.obs.profiler` -- wall-time phase profiling (inject /
  step / collect, plus fold / C kernel / Python replay on the array
  engine) with work counters exported from the compiled cycle kernel.
* :mod:`repro.obs.metrics` -- the ``repro-metrics/v1`` JSONL stream,
  CSV export and the schema validator CI runs.
* :mod:`repro.obs.progress` -- live heartbeat/ETA channels for long
  runs and replicated sweeps.

Everything hangs off :class:`ObsSpec`, the frozen observability block
of a :class:`~repro.sim.session.RunConfig`: ``obs=None`` (the default)
leaves every hot path untouched -- no probe callbacks, no histogram
branches, no wrappers -- which the overhead benchmark
(``benchmarks/bench_obs_overhead.py``) guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.probes import ProbeSpec

# imported on first use: a run with ``obs=None`` reads ``ObsSpec`` only
__getattr__ = lazy_exports(__name__, {
    ".hist": ("HistogramBank", "LatencyHistogram"),
    ".probes": ("PROBE_CATALOGUE", "ProbeSet", "ProbeSpec", "parse_probe",
                "saturation_onset"),
})

__all__ = ["ObsSpec", "ProbeSpec", "ProbeSet", "PROBE_CATALOGUE",
           "parse_probe", "saturation_onset", "LatencyHistogram",
           "HistogramBank", "obs_from_args"]


@dataclass(frozen=True)
class ObsSpec:
    """The observability block of a run config.

    Frozen + picklable (it ships to worker processes inside a
    :class:`~repro.sim.session.RunConfig`).  Falsy when every feature
    is off, so ``if config.obs:`` is the single zero-overhead gate.
    """

    probes: Tuple[ProbeSpec, ...] = ()
    latency_hist: bool = False
    profile: bool = False
    progress: bool = False

    def __bool__(self) -> bool:
        return bool(self.probes or self.latency_hist or self.profile
                    or self.progress)


def obs_from_args(args) -> Optional[ObsSpec]:
    """Build the :class:`ObsSpec` selected by parsed CLI flags
    (``--probe/--hist/--profile/--progress``), or ``None`` when no
    observability was requested."""
    probes = getattr(args, "probe", None) or ()
    if probes:
        from repro.obs.probes import parse_probe
        probes = tuple(map(parse_probe, probes))
    spec = ObsSpec(probes=probes,
                   latency_hist=bool(getattr(args, "hist", False)),
                   profile=bool(getattr(args, "profile", False)),
                   progress=bool(getattr(args, "progress", False)))
    return spec if spec else None
