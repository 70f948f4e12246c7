"""Live progress reporting: per-run heartbeats and sweep-cell ticks.

Long replicated sweeps used to run silent for minutes.  Two channels
fix that, both opt-in and both writing transient ``\\r``-rewritten
lines to *stderr* (stdout stays clean for tables/CSV):

* :class:`RunHeartbeat` -- a per-run heartbeat riding the same probe
  seam as the telemetry probes: every ``cycles // 50`` cycles it reports
  simulated cycles, throughput (cycles/s), delivered messages and an
  ETA.  Heartbeat cycles are probe cycles, which the fast-forward
  loops execute identically whether or not anything is listening, so
  enabling progress can never change a result.
* :func:`cell_progress` -- a completion-tick callback for
  :class:`~repro.sim.replication.ExecutionEngine`: one line per
  finished work cell (rate x seed), with throughput-based ETA across
  the remaining cells.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, Optional, TextIO

__all__ = ["RunHeartbeat", "cell_progress"]


def _eta(done: int, total: int, elapsed: float) -> str:
    if done <= 0 or elapsed <= 0 or total <= done:
        return "--s"
    remaining = elapsed * (total - done) / done
    if remaining >= 90:
        return f"{remaining / 60:.1f}m"
    return f"{remaining:.0f}s"


class RunHeartbeat:
    """Heartbeat for one simulation run (see module docstring).

    ``schedule(t0, cycles)`` returns the ``{cycle: callback}`` dict to
    merge into the backend probes; the callback rewrites one stderr
    status line per firing and :meth:`finish` clears it.
    """

    def __init__(self):
        self._t0_wall = 0.0
        self._t0 = 0
        self._total = 0
        #: widest status line written so far; every tick is padded to it
        #: and :meth:`finish` blanks it, so no shorter line leaves a tail
        self._width = 0

    def schedule(self, t0: int, cycles: int, net, collector
                 ) -> Dict[int, Callable[[int], None]]:
        interval = max(cycles // 50, 1)
        self._t0 = t0
        self._total = cycles
        self._net = net
        self._collector = collector
        self._t0_wall = perf_counter()
        last = t0 + cycles - 1
        ticks = list(range(t0 + interval - 1, last, interval))
        if not ticks or ticks[-1] != last:
            ticks.append(last)
        return {t: self._tick for t in ticks}

    def _tick(self, now: int) -> None:
        done = now - self._t0 + 1
        elapsed = perf_counter() - self._t0_wall
        rate = done / elapsed if elapsed > 0 else 0.0
        coll = self._collector
        delivered = coll.delivered_unicast + coll.completed_collective
        line = (f"[run] cycle {done}/{self._total} "
                f"({100 * done // self._total}%)  {rate:,.0f} cycles/s  "
                f"delivered={delivered}  in-flight={self._net.total_flits()}"
                f"  eta {_eta(done, self._total, elapsed)}")
        self._width = max(self._width, len(line))
        sys.stderr.write("\r" + line.ljust(self._width))
        sys.stderr.flush()

    def finish(self) -> None:
        if self._width:
            sys.stderr.write("\r" + " " * self._width + "\r")
            sys.stderr.flush()
            self._width = 0


def cell_progress(label: str = "sweep",
                  stream: Optional[TextIO] = None
                  ) -> Callable[[int, int], None]:
    """A ``progress(done, total)`` callback for
    :class:`~repro.sim.replication.ExecutionEngine`: one transient
    stderr line per completed cell, cleared after the last."""
    out = stream if stream is not None else sys.stderr
    t0 = perf_counter()

    def tick(done: int, total: int) -> None:
        elapsed = perf_counter() - t0
        out.write(f"\r[{label}] {done}/{total} cells  "
                  f"eta {_eta(done, total, elapsed)}   ")
        if done >= total:
            out.write("\r" + " " * 60 + "\r")
        out.flush()

    return tick
