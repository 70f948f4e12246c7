"""Phase profiler: where does a run's wall time actually go?

Opt-in (``--profile`` / ``ObsSpec(profile=True)``).  The profiler
installs *instance-level* wrappers around the hot-path seams of one
session -- never touching the classes, so concurrent unprofiled runs
are unaffected -- and reports a wall-time split:

========== ==========================================================
inject     traffic generation/injection (``TrafficMix.generate`` /
           ``inject`` / ``precompute_arrivals``)
collect    latency-collector delivery callbacks (also counted inside
           the step that triggered them)
step       whole-cycle ``backend.step`` time (every backend; on the
           array backend its Python *replay* residue is
           ``step - kernel - fold``)
fold       staged-injection fold into the arrays (array backend)
kernel     compiled C cycle kernel (array backend)
========== ==========================================================

Every wrapper times the method the unprofiled run calls -- there is no
profiler-side copy of any loop, so the profile cannot measure a cycle
other than the one that runs.  The array backend is additionally timed
at ``_fold`` and the kernel call.  The C kernel exports per-call work
counters (buffers scanned, eligible candidates, flits moved) through
``counts[5..6]`` of its counters array, which the kernel proxy
accumulates here.

Profile results never enter ``RunSummary.extra``: wall times differ
per backend and per host, and ``extra`` must stay byte-identical
across backends.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.session import SimulationSession

__all__ = ["PhaseProfiler"]


class _KernelProxy:
    """Times the compiled-kernel call and accumulates its counters."""

    def __init__(self, fn, counts, seconds: Dict[str, float]):
        self._fn = fn
        self._counts = counts
        self._seconds = seconds
        self.calls = 0
        self.scanned = 0
        self.candidates = 0
        self.moved = 0

    def __call__(self, *args):
        t0 = perf_counter()
        result = self._fn(*args)
        self._seconds["kernel"] += perf_counter() - t0
        c = self._counts
        self.calls += 1
        self.moved += int(c[0])
        self.scanned += int(c[5])
        self.candidates += int(c[6])
        return result


class PhaseProfiler:
    """Per-session wall-time profiler (see module docstring)."""

    def __init__(self, session: "SimulationSession"):
        self.session = session
        self.seconds: Dict[str, float] = {}
        self.run_seconds = 0.0
        self.cycles = 0
        self._kernel: Optional[_KernelProxy] = None
        self._t_run = 0.0
        self._cycle0 = 0
        self._undo: List = []

    # ------------------------------------------------------------------
    def attach(self) -> "PhaseProfiler":
        session = self.session
        backend = session.backend
        sec = self.seconds

        self._wrap_timed(session.mix, "generate", "inject")
        self._wrap_timed(session.mix, "inject", "inject")
        self._wrap_timed(session.mix, "precompute_arrivals", "inject")
        self._wrap_timed(session.collector, "on_unicast_cols", "collect")
        self._wrap_timed(session.collector, "on_collective_complete",
                         "collect")

        self._wrap_timed(backend, "step", "step")
        if getattr(backend, "name", "") == "array":
            self._wrap_timed(backend, "_fold", "fold")
            if backend._ck is not None:
                sec.setdefault("kernel", 0.0)
                proxy = _KernelProxy(backend._ck, backend._ck_counts,
                                     sec)
                self._kernel = proxy
                backend._ck = proxy
                self._undo.append(
                    lambda be=backend, fn=proxy._fn:
                    setattr(be, "_ck", fn))

        self._cycle0 = session.net.cycle
        self._t_run = perf_counter()
        return self

    def finish(self) -> None:
        """Stop the clock and uninstall every wrapper."""
        self.run_seconds += perf_counter() - self._t_run
        self.cycles += self.session.net.cycle - self._cycle0
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # ------------------------------------------------------------------
    def _wrap_timed(self, obj, attr: str, category: str) -> None:
        """Shadow bound method ``obj.attr`` with a timing wrapper (an
        instance attribute, removed again by :meth:`finish`)."""
        fn = getattr(obj, attr)
        sec = self.seconds
        sec.setdefault(category, 0.0)

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sec[category] += perf_counter() - t0

        setattr(obj, attr, timed)
        self._undo.append(lambda: delattr(obj, attr))

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """The profile as a JSON-ready dict (seconds per category,
        kernel counters, cycle throughput)."""
        out: Dict[str, object] = {
            "backend": self.session.config.backend,
            "cycles": self.cycles,
            "run_s": self.run_seconds,
            "cycles_per_s": (self.cycles / self.run_seconds
                             if self.run_seconds > 0 else 0.0),
            "categories": dict(sorted(self.seconds.items())),
        }
        if "fold" in self.seconds:      # array only: step's Python residue
            replay = (self.seconds["step"]
                      - self.seconds.get("kernel", 0.0)
                      - self.seconds.get("fold", 0.0))
            out["replay_s"] = max(replay, 0.0)
        proxy = self._kernel
        if proxy is not None:
            out["kernel_counters"] = {
                "calls": proxy.calls,
                "buffers_scanned": proxy.scanned,
                "candidates": proxy.candidates,
                "flits_moved": proxy.moved,
            }
        return out

    def render(self) -> str:
        """Human-readable profile table for the CLI."""
        rep = self.report()
        total = rep["run_s"] or 1e-12
        lines = [f"profile [{rep['backend']}]: {rep['cycles']} cycles "
                 f"in {rep['run_s']:.3f}s "
                 f"({rep['cycles_per_s']:,.0f} cycles/s)"]
        for cat, s in rep["categories"].items():
            lines.append(f"  {cat:<10s} {s:9.4f}s  {100 * s / total:5.1f}%")
        if "replay_s" in rep:
            lines.append(f"  {'replay':<10s} {rep['replay_s']:9.4f}s  "
                         f"{100 * rep['replay_s'] / total:5.1f}%  "
                         f"(step - kernel - fold)")
        kc = rep.get("kernel_counters")
        if kc:
            lines.append(f"  kernel: {kc['calls']} calls, "
                         f"{kc['buffers_scanned']} buffers scanned, "
                         f"{kc['candidates']} candidates, "
                         f"{kc['flits_moved']} flits moved")
        return "\n".join(lines)
