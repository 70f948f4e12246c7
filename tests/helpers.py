"""Importable test helpers.

Plain module (not a ``conftest``) so test files can ``from helpers
import drain`` without depending on which pytest root got onto
``sys.path`` first -- the seed repo's ``from conftest import drain``
resolved against ``benchmarks/conftest.py`` and broke collection.
"""

from __future__ import annotations

from repro.noc.network import Network
from repro.noc.packet import UNICAST, Packet

__all__ = ["drain", "send_one", "run_cycles", "one_cycle_segments",
           "probed_route_tables"]


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
