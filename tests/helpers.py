"""Importable test helpers.

Plain module (not a ``conftest``) so test files can ``from helpers
import drain`` without depending on which pytest root got onto
``sys.path`` first -- the seed repo's ``from conftest import drain``
resolved against ``benchmarks/conftest.py`` and broke collection.
"""

from __future__ import annotations

from repro.noc.network import Network
from repro.noc.packet import UNICAST, Packet

__all__ = ["drain", "send_one", "run_cycles", "probed_route_tables"]


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


def probed_route_tables(be):
    """Oracle for ``ArrayBackend._rtab`` / ``_rtflag``: the row-packing
    loop the engine ran before its tables were built arithmetically --
    ``route_head`` probed once per (router, role, dst) through
    ``Router._probe_route_table``, every row packed in Python.  Mirrors
    the routers' tabulability contract: a Quarc network-ingress role is
    tabulable for unicasts only, every other shipped buffer for all
    traffic."""
    from repro.core.quarc_router import LOC_R, QuarcRouter

    rtab = [None] * be._B
    rtab_all = [False] * be._B
    probed = {}
    for b, buf in enumerate(be._bufs):
        key = (id(buf.router), buf.role)
        rows = probed.get(key)
        if rows is None:
            rows = probed[key] = buf.router._probe_route_table(buf)
        jp = be._jpos[b]
        pid = be._pid
        rtab[b] = [
            (jp.get(pid[port], 0) << 24) | (pid[port] << 4)
            | (2 if vreset else 0) | (1 if deliver else 0)
            for port, deliver, vreset in rows]
        rtab_all[b] = not (isinstance(buf.router, QuarcRouter)
                           and buf.role < LOC_R)
    return rtab, rtab_all
