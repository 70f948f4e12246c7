"""Phase profiler: where does a run's wall time actually go?

Opt-in (``--profile`` / ``ObsSpec(profile=True)``).  The profiler
installs *instance-level* wrappers around the hot-path seams of one
session -- never touching the classes, so concurrent unprofiled runs
are unaffected -- and reports a wall-time split:

========== ==========================================================
inject     traffic generation/injection (``TrafficMix.inject``: the
           block draw, ``fill_calendar``, and every message it emits; a
           window of unicast columns is handed over, staged under
           ``fold``)
collect    latency-collector delivery callbacks, one tail or a batch's
           unicast tails (also counted inside the step that triggered
           them)
step       cycle execution: ``backend.step`` on ``reference``,
           ``ArrayBackend._advance`` on ``array`` (every cycle runs
           inside it, whether a window of ``run_mix`` or one ``step``;
           its Python *replay* residue is ``step - kernel - fold``)
fold       turning staged injections and windows of unicast columns
           into arrival rows (``ArrayBackend._stage``; the fold proper
           runs in the cycle)
kernel     the cycle body: the compiled ``repro_run``
========== ==========================================================

Every wrapper times the method the unprofiled run calls -- there is no
profiler-side copy of any loop, so the profile cannot measure a cycle
other than the one that runs.  Only the outermost call of a category
is timed, and ``inject`` runs outside ``step``, so ``inject`` and
``step`` are disjoint and never add up to more than ``run_s``.  The
report names the backend that ran
(``backend``: ``reference`` where a session asked for ``array`` on a
host without the C kernel); an ``array`` report adds ``tier``
(``ckernel``, with the kernel's source hash in ``kernel``) and carries
the cycle body's own work counters, read from the engine's
state struct: entries (``calls``), cycles executed inside them,
buffers scanned (non-empty rows examined from the ready set), eligible
candidates, flits moved, ready-set wakes and full rescans, why batches ended
(``stops``), how many staged packets were rows / columns / ever objects /
staged late, the closed-loop requests the kernel fired itself, the
packet table (``packet_table``: its slots, the ones a mark finds live at
the report, the compactions that reused dead ones), and how
many tails each delivery path took: collective receipts
counted by the kernel, unicasts from their columns (of which booked a
batch at a time), the rest through
``Adapter.receive_tail``, and the replies (continuations) the kernel
sent itself; and the size of the engine's static state
(``footprint``: route-table rows x destinations, ring words, queue-table
entries) and the object graph (``objects: none built``, or the cycle
``Network.built`` records and why).

Profile results never enter ``RunSummary.extra``: wall times differ
per backend and per host, and ``extra`` must stay byte-identical
across backends.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Set

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.session import SimulationSession

__all__ = ["PhaseProfiler"]


def _kernel_counters(backend) -> Dict[str, object]:
    """The cycle body's cumulative work counters (state struct), the packets
    staged / as rows / as columns / ever objects / late (staged in front
    of the waiting rows), the tails by delivery path."""
    from repro.sim.array_backend import STOPS
    st = backend._st
    staged, rows, cols = backend._nstaged, backend._nrows, backend._ncols
    return {"calls": st.calls, "cycles": st.cycles,
            "buffers_scanned": st.scanned, "candidates": st.cands,
            "flits_moved": st.flits, "wakes": st.wakes,
            "rescans": st.rescans, "coins": st.coins,
            "packets_staged": staged, "packets_rows": rows,
            "packets_columns": cols,
            "packets_built": staged - rows - cols + backend._nbuilt,
            "packets_late": backend._nlate,
            "tails_delivered": backend.net.deliveries,
            "tails_kernel": st.receipts,
            "tails_unicast": backend._nuni,
            "tails_booked": backend._nbook,
            "tails_receive_tail": backend._nrecv,
            "replies_kernel": st.sent,
            "requests_kernel": st.fired,
            "stops": dict(zip(STOPS, st.stops))}


def _packet_table(backend) -> Dict[str, int]:
    """The engine's packet table: its slots, how many a mark finds live
    now, the compactions that ran."""
    return {"slots": len(backend._pdst), "live": int(backend._live().sum()),
            "compactions": backend._ncompact}


def _footprint(backend) -> Dict[str, object]:
    """What the engine's static state holds: route-table rows x
    destinations, ring words, queue-table entries; the object graph."""
    rows, cols = backend._rtab.shape
    built = backend.net.built
    return {"route_rows": rows, "route_cols": cols,
            "ring_words": backend._rflat.size,
            "queue_entries": backend._qtab.size,
            "objects": ("none built" if built is None
                        else "built at cycle %d by %s" % built)}


class PhaseProfiler:
    """Per-session wall-time profiler (see module docstring)."""

    def __init__(self, session: "SimulationSession"):
        self.session = session
        self.seconds: Dict[str, float] = {}
        self.run_seconds = 0.0
        self.cycles = 0
        self._kc0: Dict[str, object] = {}     # counters at attach
        self._t_run = 0.0
        self._cycle0 = 0
        self._undo: List = []
        self._busy: Set[str] = set()    # categories being timed now

    # ------------------------------------------------------------------
    def attach(self) -> "PhaseProfiler":
        session = self.session
        backend = session.backend
        sec = self.seconds

        self._wrap_timed(session.mix, "inject", "inject")
        for name in ("on_unicast_cols", "on_unicasts", "on_collectives",
                     "on_collective_complete", "on_collective_cols"):
            self._wrap_timed(session.collector, name, "collect")

        if getattr(backend, "name", "") == "array":
            self._wrap_timed(backend, "_advance", "step")
            self._wrap_timed(backend, "_stage", "fold")
            self._wrap_timed(backend, "_ck", "kernel")
            self._kc0 = _kernel_counters(backend)
        else:
            self._wrap_timed(backend, "step", "step")

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
        """Shadow ``obj.attr`` with a timing wrapper (an instance
        attribute; :meth:`finish` removes it, or puts back the instance
        attribute it shadowed).  Only the outermost call of a category
        is timed."""
        fn = getattr(obj, attr)
        sec, busy = self.seconds, self._busy
        sec.setdefault(category, 0.0)
        had = attr in vars(obj)

        def timed(*args, **kwargs):
            if category in busy:
                return fn(*args, **kwargs)
            busy.add(category)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sec[category] += perf_counter() - t0
                busy.discard(category)

        setattr(obj, attr, timed)
        self._undo.append(lambda: setattr(obj, attr, fn) if had
                          else delattr(obj, attr))

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """The profile as a JSON-ready dict (seconds per category,
        kernel counters, cycle throughput)."""
        out: Dict[str, object] = {
            "backend": self.session.backend.name,
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
        if self._kc0:
            from repro.sim.ckernel import source_hash
            out["tier"] = "ckernel"
            out["kernel"] = source_hash()
            out["footprint"] = _footprint(self.session.backend)
            out["packet_table"] = _packet_table(self.session.backend)
            kc = _kernel_counters(self.session.backend)
            base = self._kc0
            out["kernel_counters"] = {
                k: ({r: n - base[k][r] for r, n in v.items()}
                    if k == "stops" else v - base[k])
                for k, v in kc.items()}
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
                         f"{kc['flits_moved']} flits moved, "
                         f"{kc['wakes']} wakes, {kc['rescans']} rescans, "
                         f"{kc['coins']} coins drawn")
            lines.append(
                "  packets: {packets_staged} staged, {packets_rows} as rows, "
                "{packets_columns} as columns, {packets_built} built, "
                "{packets_late} late, {requests_kernel} fired by the "
                "kernel, table {slots} slots, {live} live after "
                "{compactions} compactions\n"
                "  tails: {tails_delivered} delivered, {tails_kernel} counted "
                "by the kernel, {tails_unicast} as unicast columns "
                "({tails_booked} booked per batch), "
                "{tails_receive_tail} through receive_tail, "
                "{replies_kernel} replies sent by the kernel".format(
                    **kc, **rep["packet_table"]))
            stops = ", ".join(f"{n} {why}"
                              for why, n in kc["stops"].items())
            lines.append(f"  tier {rep['tier']} {rep['kernel']}: "
                         f"{kc['cycles']} cycles executed; batches "
                         f"ended by {stops}")
            lines.append(
                "  footprint: route table {route_rows} rows x {route_cols}, "
                "rings {ring_words} words, queue table {queue_entries} "
                "entries; objects: {objects}".format(**rep["footprint"]))
        return "\n".join(lines)
