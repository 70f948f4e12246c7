"""Wormhole router base class and the two-phase cycle update.

A router owns input buffers (two VC lanes per physical input port, as in
the paper's IPC) and output ports.  Every cycle the network runs two
phases:

* **Phase A (arbitrate)** -- every active router's output ports pick at
  most one flit each, reading only start-of-cycle buffer state.  Because
  no state mutates in this phase, simultaneous decisions across the whole
  network are order-independent.
* **Phase B (commit)** -- granted flits move: popped from their input
  lane, pushed into the downstream buffer (next router's IPC) or delivered
  to the local sink for ejection ports.  Wormhole/VC bookkeeping (the
  FCU switching table and OPC VC-allocation table) updates here.

The net effect is one cycle per hop, a one-cycle credit loop, and flit
interleaving on physical links only between different VCs -- the same
behaviour the paper's four-stage switch (input buffering, routing,
switching, VC allocation) produces at the granularity its OMNeT++ model
simulates.

Concrete topologies subclass :class:`Router` and implement
:meth:`Router.route_head`, which encodes the *entire* routing discipline;
for the Quarc this is famously trivial ("there is no routing required by
the switch", Sec. 2.5.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.noc.buffers import LOCAL_QUEUE_DEPTH, FlitBuffer
from repro.noc.packet import UNICAST, Packet
from repro.noc.ports import Move, OutPort
from repro.noc.wiring import Switch

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network

__all__ = ["Router", "commit_move"]


class Router:
    """Base wormhole router.

    Attributes
    ----------
    node:
        This router's node id.
    n:
        Network size (number of nodes).
    in_bufs:
        All input VC lanes, including local injection queues.
    out_ports:
        All output ports, including ejection ports.
    flits:
        Total flits currently resident in this router's buffers and
        injection queues; the network skips routers with ``flits == 0``.
    """

    __slots__ = ("node", "n", "in_bufs", "out_ports", "flits", "net",
                 "fstate")

    #: The topology is vertex-symmetric and every router is built alike:
    #: the :meth:`route_table` columns of node ``v``'s ``k``-th buffer at
    #: ``dst`` equal node 0's at ``(dst - v) mod n``.  An array engine
    #: then keeps one row per buffer position for the whole network.
    relative_tables = False

    #: The switch, described once for every node (``repro.noc.wiring``).
    #: Buffers, in creation order: VC lane pairs, then local queues,
    #: each ``(attribute, label, role)``.
    LANES: tuple = ()
    QUEUES: tuple = ()
    #: Output ports, in creation order, each ``(name, vc_policy,
    #: feeders, link)``: ``feeders`` names the buffers (a lane pair: both
    #: lanes) the port arbitrates among, in round-robin order; ``link`` is
    #: ``(step, lanes)``, the lane pair the port feeds at the neighbour
    #: :meth:`neighbours` finds across ``step``, or ``None`` (ejection).
    PORTS: tuple = ()

    def __init__(self, node: int, n: int, buffer_depth: int = 4):
        self.node = node
        self.n = n
        self.flits = 0
        self.net: Optional["Network"] = None
        #: Fault seam: the :class:`repro.faults.FaultState` installed on
        #: this network, or ``None`` (the overwhelmingly common case).
        #: :meth:`route` dispatches through it so every backend sees the
        #: same fault-aware routing decisions.
        self.fstate = None
        # the switch's buffers, ports and feeders, from the description
        # (each also an attribute); its links are the network's to wire
        # (``Wiring.routers``)
        sw = self.switch()
        b0 = node * len(sw.labels)
        bufs: List[FlitBuffer] = [
            FlitBuffer(buffer_depth if lane else LOCAL_QUEUE_DEPTH,
                       f"r{node}.{label}", self, role, b0 + k)
            for k, (label, role, lane) in enumerate(
                zip(sw.labels, sw.roles, sw.lanes))]
        p0 = node * len(sw.ports)
        ports: List[OutPort] = [
            OutPort(name, self, vc_policy=policy, row=p0 + i)
            for i, (name, policy, _, _) in enumerate(sw.ports)]
        for port, (name, _, feeders, _) in zip(ports, sw.ports):
            port.feeders = [bufs[k] for k in feeders]
            setattr(self, name, port)
        for buf, fed in zip(bufs, sw.fed):
            buf.fed.extend(map(ports.__getitem__, fed))
        for attr, at in sw.groups.items():
            setattr(self, attr, bufs[at])
        self.in_bufs = bufs
        self.out_ports = ports

    @classmethod
    def at(cls, node: int, topo, buffer_depth: int) -> "Router":
        """Node ``node``'s router in the ``topo`` network."""
        return cls(node, topo.n, buffer_depth)

    @classmethod
    def switch(cls) -> Switch:
        """This class's switch description, compiled (once)."""
        sw = cls.__dict__.get("_switch")
        if sw is None:
            sw = Switch(cls.LANES, cls.QUEUES, cls.PORTS)
            cls._switch = sw
        return sw

    @classmethod
    def neighbours(cls, step: str, n: int, topo) -> Tuple[np.ndarray,
                                                          np.ndarray]:
        """Every node's neighbour across the link ``step`` (-1: none),
        and whether that link wraps the node index space (on a rim, the
        dateline), as two columns over the nodes.  The default is a ring
        with chords: ``cw`` (+1), ``ccw`` (-1) and ``cross`` (the
        antipode, +N/2)."""
        to = np.arange(n) + {"cw": 1, "ccw": -1, "cross": n // 2}[step]
        return to % n, (to < 0) | (to >= n)

    # ------------------------------------------------------------------
    # routing -- the only topology-specific logic
    # ------------------------------------------------------------------
    def route_head(self, buf: FlitBuffer,
                   pkt: "Packet") -> Tuple[OutPort, bool]:
        """Route a header flit sitting at the front of ``buf``.

        Returns ``(output port, clone_to_local)``.  ``clone_to_local``
        True means every flit forwarded from this buffer is simultaneously
        copied to the local PE -- the Quarc absorb-and-forward broadcast.
        Must be deterministic and side-effect free (it is called once per
        blocked head flit per cycle).
        """
        raise NotImplementedError

    def route(self, buf: FlitBuffer,
              pkt: "Packet") -> Tuple[OutPort, bool]:
        """Routing dispatcher: :meth:`route_head` on the fault-free
        path, the installed :class:`~repro.faults.FaultState` otherwise
        (which wraps :meth:`route_head` with reroute/drop policy).
        Backends must route headers through this, never through
        :meth:`route_head` directly."""
        fs = self.fstate
        if fs is None:
            return self.route_head(buf, pkt)
        return fs.route(self, buf, pkt)

    def route_table(self, role: int):
        """Destination-indexed routing columns for array engines, or
        ``None``.

        When routing from this router's buffers of ingress role ``role``
        (``FlitBuffer.role``) is a pure function of the packet's
        destination (for *every* traffic class), return three
        numpy columns indexed by destination node, computed
        arithmetically (no :meth:`route_head` calls): ``slot`` (integer
        index into ``self.out_ports``), ``deliver`` (bool, the
        clone-to-local flag) and ``vclass_reset`` (bool, routing rewinds
        the packet's VC class).  An array engine then resolves header
        requests by table lookup and never calls :meth:`route_head` on
        the hot path.  The default ``None`` means "not tabulable" and
        keeps the per-header ``route_head`` path in charge -- where a
        Quarc ingress leaves multicast, whose clone decision reads a
        bitstring no column entry holds (``QuarcRouter``).
        """
        return None

    def unicast_route_table(self, role: int):
        """Like :meth:`route_table`, for a role whose multicast
        routing is not tabulable: the columns must hold for every other
        class (engines gate the lookup on the traffic class).  A router
        that clones passing broadcasts appends a fourth bool column,
        ``bclone``: clone to the PE if the packet is a ``BROADCAST``.
        Default: whatever :meth:`route_table` offers."""
        return self.route_table(role)

    def _probe_route_table(self, buf: FlitBuffer, traffic: int = UNICAST):
        """The scalar oracle :meth:`route_table` is tested against:
        tabulate :meth:`route_head` by probing every destination with a
        throwaway packet of class ``traffic`` (as a multicast, one that
        targets every node), as ``(port, clone_to_local, vclass_reset)``
        rows.  The ``vclass_reset`` column records whether routing
        rewound the probe's VC class (the mesh/torus dimension-turn
        reset)."""
        pkt = Packet(self.node, 0, 1, traffic, bitstring=-1)
        rows = []
        for dst in range(self.n):
            pkt.dst = dst
            pkt.vclass = 9          # sentinel; real classes are 0/1
            port, deliver = self.route_head(buf, pkt)
            rows.append((port, bool(deliver), pkt.vclass != 9))
        return rows

    # ------------------------------------------------------------------
    # per-cycle phase A
    # ------------------------------------------------------------------
    def collect(self, moves: List[Move]) -> None:
        """Arbitrate all output ports, appending granted moves."""
        for port in self.out_ports:
            mv = port.arbitrate()
            if mv is not None:
                moves.append(mv)

    def occupancy(self) -> int:
        """Flits resident in switch buffers (excludes local queues)."""
        return sum(len(b.q) for b in self.in_bufs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} node={self.node} "
                f"flits={self.flits}>")


def commit_move(move: Move, now: int, net: "Network") -> None:
    """Phase B: execute one granted flit movement.

    Handles, in order: the flit pop, FCU switching-table update (latch on
    header, clear on tail), OPC VC-allocation table update, dateline VC
    class upgrade, and the actual push -- downstream buffer for links,
    local delivery for ejections, plus the broadcast clone copy when the
    ingress multiplexer is in absorb-and-forward mode.
    """
    buf, port, vc, deliver = move
    pkt, fidx = buf.pop()
    tail = fidx == pkt.size - 1
    head = fidx == 0

    if head and not tail:
        # latch switching info until the tail flit of this packet
        port.owner[vc] = buf
        buf.cur_out = port
        buf.cur_vc = vc
        buf.cur_deliver = deliver
        buf.cur_pkt = pkt
    if tail:
        if port.owner[vc] is buf:
            port.owner[vc] = None
        buf.clear_switching()

    port.flits_sent += 1
    node = port.router.node
    if deliver:
        # absorb-and-forward: local PE receives a copy of the flit in the
        # same cycle it is forwarded (the cloned ingress mux, Sec. 2.5.2)
        net.deliver(node, pkt, fidx, now)

    down = port.down[vc]
    if down is None:
        # getattr: unit tests drive commit_move with minimal net stubs
        fs = getattr(net, "fault_state", None)
        if fs is not None:
            fs.ejected_flits += 1
        if hasattr(net, "flits_ejected"):
            net.flits_ejected += 1
        net.deliver(node, pkt, fidx, now)
    else:
        if port.is_dateline:
            pkt.vclass = 1
        down.push(pkt, fidx)
