"""Zero-load identities: the simulator against the topology's own path
function, on both engines.

A lone unicast takes ``topo.hops(src, dst) + M - 1`` cycles: one per hop
for the header, one per further flit.  A lone broadcast completes in
``N/4 + M - 1`` on the Quarc (four quadrant branches at once) and in
``(N/2)(M + 1) - 1`` on the Spidergon (two relay chains, each segment
stored and forwarded).  ``topo.hops`` comes from the topology's path
function, not from a router, so these check routing independently of
the route tables and of ``route_head``.  Each message runs alone: sent,
then drained (``drain`` counts the cycle its last flit leaves in); the
collector's samples must say the same.
"""

from __future__ import annotations

import pytest

from repro.core.api import build_network
from repro.noc.packet import UNICAST, Packet
from repro.sim.backend import make_backend

M = 3


def _sources(kind, topo):
    """A node of every class the topology's symmetries leave: one on the
    vertex-symmetric rings and torus, a quadrant of the mesh."""
    if kind != "mesh":
        return [0]
    return [r * topo.cols + c for r in range((topo.rows + 1) // 2)
            for c in range((topo.cols + 1) // 2)]


def _lone(net, send) -> int:
    """Cycles the message ``send(now)`` injects takes, alone."""
    send(net.cycle)
    return net.drain() - 1


def _samples(stats, want):
    """``stats`` (the collector's ``BatchMeans``) holds the latencies
    ``want``: their count, extremes and mean."""
    overall = stats.overall
    assert (overall.n, overall.min, overall.max) == (
        len(want), min(want), max(want))
    assert overall.mean == pytest.approx(sum(want) / len(want), rel=1e-12)


@pytest.mark.parametrize("backend", ["reference", "array"])
@pytest.mark.parametrize("kind", ["quarc", "spidergon", "mesh", "torus"])
@pytest.mark.parametrize("n", [8, 16])
def test_lone_unicast_takes_hops_plus_length(kind, n, backend):
    net, topo = build_network(kind, n)
    make_backend(backend, net)
    ad = net.adapters
    got, want = {}, {}
    for src in _sources(kind, topo):
        for dst in range(n):
            if dst != src:
                got[src, dst] = _lone(net, lambda t: ad[src].send(
                    Packet(src, dst, M, UNICAST, created=t), t))
                want[src, dst] = topo.hops(src, dst) + M - 1
    assert got == want
    _samples(net.adapters[0].collector.unicast, list(want.values()))


@pytest.mark.parametrize("backend", ["reference", "array"])
@pytest.mark.parametrize("kind,cycles", [
    ("quarc", lambda n: n // 4 + M - 1),
    ("spidergon", lambda n: n // 2 * (M + 1) - 1)], ids=["quarc",
                                                        "spidergon"])
@pytest.mark.parametrize("n", [8, 16])
def test_lone_broadcast_completes_in_closed_form(kind, cycles, n, backend):
    net, _ = build_network(kind, n)
    make_backend(backend, net)
    for src in (0, n - 1):
        assert _lone(net, lambda t: net.adapters[src].send_broadcast(
            M, t)) == cycles(n)
    _samples(net.adapters[0].collector.collective, [cycles(n)] * 2)
