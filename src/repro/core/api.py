"""Public construction API: build ready-to-run networks.

>>> from repro import build_network
>>> net, topo = build_network("quarc", 16)
>>> net.adapters[0].send_broadcast(size=8, now=0)   # doctest: +ELLIPSIS
<repro.noc.packet.CollectiveOp object at ...>
>>> _ = net.drain()
>>> net.total_flits()
0
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.collector import LatencyCollector
from repro.core.dor_router import DORAdapter, MeshRouter, TorusRouter
from repro.core.quarc_router import QuarcRouter
from repro.core.quarc_transceiver import QuarcTransceiver
from repro.core.spidergon_adapter import SpidergonAdapter
from repro.core.spidergon_router import SpidergonRouter
from repro.noc.network import Network
from repro.noc.wiring import Wiring
from repro.topologies import (MeshTopology, QuarcTopology,
                              SpidergonTopology, Topology, TorusTopology)

__all__ = ["build_network", "NETWORK_KINDS"]

NETWORK_KINDS = ("quarc", "spidergon", "mesh", "torus")


def build_network(kind: str, n: int, *, buffer_depth: int = 4,
                  collector: Optional[LatencyCollector] = None,
                  bcast_mode: str = "clone",
                  cols: int = 0) -> Tuple[Network, Topology]:
    """Build a fully wired network of ``kind`` with ``n`` nodes.

    Parameters
    ----------
    kind:
        ``"quarc"`` | ``"spidergon"`` | ``"mesh"`` | ``"torus"``.
    n:
        Node count.  Quarc needs ``n % 4 == 0``; Spidergon needs even
        ``n``; mesh/torus need ``n`` to factor as ``rows * cols``.
    buffer_depth:
        Flits per VC lane in the switch input buffers.
    collector:
        Shared :class:`~repro.core.collector.LatencyCollector`; a fresh
        one is created when omitted (reachable via any adapter).
    bcast_mode:
        Quarc ablation hook: ``"relay"`` makes the Quarc topology
        broadcast by unicast relay chains like the Spidergon, isolating
        the absorb-and-forward contribution.  Relay segments are never
        cloned, so the switches need no setting of their own.
    cols:
        Mesh/torus column count (default: square).

    Returns
    -------
    (network, topology)
    """
    if kind not in NETWORK_KINDS:
        raise ValueError(f"unknown network kind {kind!r}; "
                         f"expected one of {NETWORK_KINDS}")
    coll = collector or LatencyCollector()

    if kind == "quarc":
        topo: Topology = QuarcTopology(n)
        routers = [QuarcRouter(i, n, buffer_depth) for i in range(n)]
        adapters = [QuarcTransceiver(i, routers[i], coll,
                                     bcast_mode=bcast_mode)
                    for i in range(n)]
    elif kind == "spidergon":
        topo = SpidergonTopology(n)
        routers = [SpidergonRouter(i, n, buffer_depth) for i in range(n)]
        adapters = [SpidergonAdapter(i, routers[i], coll) for i in range(n)]
    elif kind == "mesh":
        topo = MeshTopology(n, cols)
        routers = [MeshRouter(i, topo, buffer_depth) for i in range(n)]
        adapters = [DORAdapter(i, routers[i], coll) for i in range(n)]
    else:  # torus
        topo = TorusTopology(n, cols)
        routers = [TorusRouter(i, topo, buffer_depth) for i in range(n)]
        adapters = [DORAdapter(i, routers[i], coll) for i in range(n)]

    wiring = Wiring(type(routers[0]), n, topo, buffer_depth)
    net = Network(routers, adapters, name=kind, wiring=wiring)
    wiring.connect(net)
    return net, topo
