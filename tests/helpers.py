"""Importable test helpers.

Plain module (not a ``conftest``) so test files can ``from helpers
import drain`` without depending on which pytest root got onto
``sys.path`` first -- the seed repo's ``from conftest import drain``
resolved against ``benchmarks/conftest.py`` and broke collection.
"""

from __future__ import annotations

import random

from repro.noc.network import Network
from repro.noc.packet import UNICAST, Packet

__all__ = ["drain", "send_one", "run_cycles", "run_per_cycle",
           "one_cycle_segments", "CountingRandom",
           "probed_route_tables", "scalar_gap", "scalar_columns"]


def drain(net: Network, max_cycles: int = 200_000) -> int:
    """Run without new traffic until empty; returns cycles taken."""
    return net.drain(max_cycles)


def send_one(net: Network, src: int, dst: int, size: int,
             now: int = 0) -> Packet:
    pkt = Packet(src, dst, size, UNICAST, created=now)
    net.adapters[src].send(pkt, now)
    return pkt


def run_cycles(net: Network, cycles: int) -> None:
    for _ in range(cycles):
        net.step()


def run_per_cycle(backend, mix, cycles: int, probes=None) -> None:
    """The per-cycle oracle of ``SimBackend.run_mix``: ``generate``,
    ``step`` and the probe, one cycle at a time (on an array engine,
    ``step`` is a batch of horizon 1)."""
    probes = probes or {}
    t0 = backend.net.cycle
    for t in range(t0, t0 + cycles):
        mix.generate(t)
        backend.step(t)
        cb = probes.get(t)
        if cb is not None:
            cb(t)


class CountingRandom(random.Random):
    """A copy of generator ``rng`` that counts its ``random()`` calls:
    a closed-loop source's coin reads."""

    def __init__(self, rng: random.Random):
        super().__init__()
        self.setstate(rng.getstate())
        self.reads = 0

    def random(self) -> float:
        self.reads += 1
        return super().random()


def one_cycle_segments(inj, stop: int, start: int = 0) -> list:
    """An arrival model's train over ``[start, stop)`` drawn one cycle
    per ``arrivals_in`` call -- what a per-cycle poll of it saw."""
    return [t for c in range(start, stop) for t in inj.arrivals_in(c, c + 1)]


def probed_route_tables(be):
    """Oracle for ``ArrayBackend._rtab`` / ``_rtflag``: the row-packing
    loop the engine ran before its tables were built arithmetically --
    ``route_head`` probed once per (router, role, dst, traffic class)
    through ``Router._probe_route_table``, every row packed in Python.
    The unicast probe gives port, ``deliver`` and ``vclass_reset``; a
    relay probe must repeat it; a broadcast probe may only add the
    clone, which is bit 2; and a row holds for every class (the second
    list) iff a multicast probe repeats the unicast one too."""
    from repro.noc.packet import BROADCAST, MULTICAST, RELAY

    rtab = [None] * be._B
    rtab_all = [False] * be._B
    probed = {}
    for b, buf in enumerate(be._bufs):
        key = (id(buf.router), buf.role)
        if key not in probed:
            probe = buf.router._probe_route_table
            uni, bcast = probe(buf), probe(buf, BROADCAST)
            assert probe(buf, RELAY) == uni, key
            assert all((pu, vu) == (pb, vb) and db >= du for
                       (pu, du, vu), (pb, db, vb) in zip(uni, bcast)), key
            probed[key] = ([(*u, db and not u[1]) for u, (_, db, _) in
                            zip(uni, bcast)], probe(buf, MULTICAST) == uni)
        rows, rtab_all[b] = probed[key]
        jp = be._jpos[b]
        pid = be._pid
        rtab[b] = [
            (jp.get(pid[port], 0) << 24) | (pid[port] << 4)
            | (4 if bclone else 0) | (2 if vreset else 0)
            | (1 if deliver else 0)
            for port, deliver, vreset, bclone in rows]
    return rtab, rtab_all


def scalar_gap(rng, rate: float) -> int:
    """One Bernoulli gap the per-message way: a ``random()`` and a libm
    ``log`` (no draw at rates 0 and 1)."""
    import math
    from repro.traffic.arrival import NEVER
    if rate < 1.0 / NEVER:
        return NEVER
    if rate >= 1.0:
        return 0
    return int(math.log(1.0 - rng.random()) / math.log1p(-rate))


def scalar_columns(arrival_rngs, class_rngs, dst_rngs, rate: float,
                   beta: float, cuts):
    """Oracle for ``repro.traffic.columns.ColumnDraw``: the single-class
    mix's draw before it was vectorised -- per node a gap countdown
    (:func:`scalar_gap`, the first gap drawn up front), then per arrival
    in ``(cycle, node)`` order a ``random() < beta`` broadcast decision
    and a ``UniformPattern.pick``.  Draws the blocks ``[cuts[i],
    cuts[i + 1])``; returns ``(cycle, node, dst)`` rows (``dst = -1``: a
    broadcast) and each node's next arrival cycle."""
    from repro.traffic.generators import UniformPattern
    n = len(arrival_rngs)
    pick = UniformPattern(n).pick
    nxt = [cuts[0] + scalar_gap(r, rate) for r in arrival_rngs]
    rows = []
    for start, stop in zip(cuts, cuts[1:]):
        block = []
        for v, rng in enumerate(arrival_rngs):
            while nxt[v] < stop:
                block.append((nxt[v], v))
                nxt[v] += 1 + scalar_gap(rng, rate)
        for c, v in sorted(block):
            bcast = beta and class_rngs[v].random() < beta
            rows.append((c, v, -1 if bcast else pick(v, dst_rngs[v])))
    return rows, nxt
