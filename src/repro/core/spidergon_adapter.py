"""The Spidergon network adapter: one queue, broadcast by unicast.

The PE stores packets in RAM and queues their addresses in a **single**
injection queue (Sec. 3.1), so every message -- whatever its destination
quadrant -- serialises through one injection channel.

Broadcast (Sec. 2.2): "deadlock-free broadcast can only be achieved by
consecutive unicast transmissions".  The most efficient algorithm costs
N-1 hops: two neighbour-relay chains, clockwise over ceil((N-1)/2) nodes
and counter-clockwise over the rest.  Each visited node absorbs the full
packet through the (single) ejection port, the switch rewrites the header
and re-injects the regenerated packet through the replication queue,
where it competes with through-traffic and the node's own messages.  This
store-rewrite-reinject pipeline at *packet* granularity is what makes
Spidergon broadcast latency scale like (N/2) * M rather than the Quarc's
N/4 + M.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.core.collector import LatencyCollector
from repro.noc.network import Adapter
from repro.noc.packet import (BROADCAST, MULTICAST, RELAY, UNICAST,
                              CollectiveOp, Packet)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.spidergon_router import SpidergonRouter

__all__ = ["SpidergonAdapter"]


class SpidergonAdapter(Adapter):
    """One-port network adapter for one Spidergon node."""

    __slots__ = ("router", "collector")

    def __init__(self, node: int, router: "SpidergonRouter",
                 collector: Optional[LatencyCollector] = None):
        super().__init__(node)
        self.router = router
        self.collector = collector or LatencyCollector()

    # ------------------------------------------------------------------
    # injection side
    # ------------------------------------------------------------------
    #: unicast / passive collective delivery is exactly the collector's
    #: ``on_unicast`` / ``on_collective_tail`` (see ``QuarcTransceiver``)
    unicast_via_collector = collective_via_collector = True
    #: only relay tails re-inject (``QuarcTransceiver.reinjecting_tails``)
    reinjecting_tails = (RELAY,)

    def unicast_queue_table(self):
        """One queue for every destination (see ``QuarcTransceiver``)."""
        import numpy as np      # the array engine's dependency, not ours
        return [self.router.local_q], np.zeros(self.router.n, np.int64)

    def _enqueue(self, pkt: Packet, replication: bool = False) -> None:
        q = self.router.repl_q if replication else self.router.local_q
        q.push_packet(pkt)

    def send(self, pkt: Packet, now: int) -> None:
        if pkt.traffic != UNICAST:
            raise ValueError("send() is for unicasts; use send_broadcast/"
                             "send_multicast for collectives")
        pkt.created = now
        self.collector.note_generated(collective=False)
        self._enqueue(pkt)

    def send_broadcast(self, size: int, now: int) -> CollectiveOp:
        """Start the two broadcast-by-unicast relay chains."""
        n = self.router.n
        op = CollectiveOp(self.node, now, expected=n - 1, kind=BROADCAST)
        self.collector.note_generated(collective=True)
        cw_count = (n - 1 + 1) // 2           # ceil((N-1)/2)
        ccw_count = (n - 1) - cw_count
        fs = self.net.fault_state if self.net is not None else None
        for step, count in ((1, cw_count), (-1, ccw_count)):
            if count == 0:
                continue
            if fs is not None and fs.src_cannot_reach(
                    self.node, (self.node + step) % n):
                # the chain's first relay target is gone: the whole
                # direction's receivers are lost
                fs.source_drop_branch(op)
                continue
            pkt = Packet(self.node, (self.node + step) % n, size, RELAY,
                         created=now, op=op)
            pkt.meta["dir"] = step
            pkt.meta["remaining"] = count - 1
            self._enqueue(pkt)                # source uses its own PE queue
        return op

    def send_multicast(self, targets: Iterable[int], size: int,
                       now: int) -> CollectiveOp:
        """Multicast as target-to-target relay chains (one per direction).

        Targets are split by shorter rim side relative to the source and
        visited in rim order; each segment is an ordinary across-first
        unicast, regenerated at every intermediate target.
        """
        n = self.router.n
        tgts = sorted(set(targets) - {self.node})
        if not tgts:
            raise ValueError("multicast needs at least one remote target")
        op = CollectiveOp(self.node, now, expected=len(tgts), kind=MULTICAST)
        self.collector.note_generated(collective=True)
        cw_side: List[int] = []
        ccw_side: List[int] = []
        for t in tgts:
            k = (t - self.node) % n
            (cw_side if k <= n - k else ccw_side).append(t)
        cw_side.sort(key=lambda t: (t - self.node) % n)
        ccw_side.sort(key=lambda t: (self.node - t) % n)
        fs = self.net.fault_state if self.net is not None else None
        for chain in (cw_side, ccw_side):
            if not chain:
                continue
            if fs is not None and fs.src_cannot_reach(self.node, chain[0]):
                fs.source_drop_branch(op)
                continue
            pkt = Packet(self.node, chain[0], size, RELAY, created=now,
                         op=op)
            pkt.meta["chain"] = tuple(chain[1:])
            self._enqueue(pkt)
        return op

    # ------------------------------------------------------------------
    # delivery side
    # ------------------------------------------------------------------
    def receive_tail(self, pkt: Packet, now: int) -> None:
        t = pkt.traffic
        if t == UNICAST:
            self.collector.on_unicast(pkt, now)
        elif t == RELAY:
            self._relay_forward(pkt, now)
        elif pkt.op is not None:
            self.collector.on_collective_tail(pkt.op, self.node, now)

    def _relay_forward(self, pkt: Packet, now: int) -> None:
        """Absorb, record, rewrite header, re-inject (Sec. 2.2)."""
        op = pkt.op
        if op is not None:
            self.collector.on_collective_tail(op, self.node, now)

        n = self.router.n
        fs = self.net.fault_state if self.net is not None else None
        if "chain" in pkt.meta:                # multicast target chain
            chain = pkt.meta["chain"]
            if not chain:
                return
            if fs is not None and fs.src_cannot_reach(self.node, chain[0]):
                fs.source_drop_branch(op)
                return
            new = Packet(self.node, chain[0], pkt.size, RELAY,
                         created=now, op=op)
            new.meta["chain"] = tuple(chain[1:])
            self.collector.on_relay_segment()
            self._enqueue(new, replication=True)
            return
        remaining = pkt.meta.get("remaining", 0)
        if remaining <= 0:
            return
        step = pkt.meta["dir"]
        if fs is not None and fs.src_cannot_reach(
                self.node, (self.node + step) % n):
            # the relay chain cannot continue past this node
            fs.source_drop_branch(op)
            return
        new = Packet(self.node, (self.node + step) % n, pkt.size, RELAY,
                     created=now, op=op)
        new.meta["dir"] = step
        new.meta["remaining"] = remaining - 1
        self.collector.on_relay_segment()
        self._enqueue(new, replication=True)
