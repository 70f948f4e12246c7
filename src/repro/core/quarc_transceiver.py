"""The Quarc transceiver (network adapter) of Sec. 2.4 / Fig. 5.

The transceiver sits between a processing element and the all-port
router.  Its five functional blocks map onto this model as follows:

* **write controller** -- splits a message into M flits and stamps the
  flit type (modelled by enqueuing ``(packet, flit_index)`` tuples; the
  bit-exact 34-bit encoding lives in :mod:`repro.core.packet_format`);
* **quadrant calculator** -- :class:`repro.core.quadrant.QuadrantCalculator`;
* **buffer selector** -- picks which of the four quadrant buffers receives
  the flits;
* **buffers** -- the four quadrant queues, i.e. the router's local ingress
  lanes.  Four independent queues is precisely the all-port property: a
  message waits only if *its* quadrant is backed up;
* **FCU** -- the per-queue streaming into the router, handled by the
  router's output-port arbitration.

Broadcast: one packet per quadrant, header destination = last node of the
branch, as in Fig. 6.  Multicast: targets are partitioned by quadrant and
each branch packet carries a bitstring whose bit *h* marks the node at
hop-distance *h* along the branch (Sec. 2.5.3).

``bcast_mode="relay"`` is an ablation hook (not in the paper): it makes
the Quarc *topology* perform Spidergon-style broadcast-by-unicast so the
benefit of absorb-and-forward can be isolated from the benefit of the
doubled cross link.  It is the whole ablation: a relay segment is
routed like a unicast, so no switch ever clones it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.collector import LatencyCollector
from repro.core.quadrant import QuadrantCalculator
from repro.noc.network import Adapter
from repro.noc.packet import BROADCAST, MULTICAST, CollectiveOp, Packet
from repro.topologies.quarc import LEFT, RIGHT, XLEFT, XRIGHT

__all__ = ["QuarcTransceiver"]


class QuarcTransceiver(Adapter):
    """All-port network adapter for one Quarc node."""

    __slots__ = ("calc", "bcast_mode")

    #: each quadrant's queue (a ``QuarcRouter`` attribute)
    queues = {RIGHT: "loc_r", LEFT: "loc_l", XRIGHT: "loc_xr", XLEFT: "loc_xl"}

    def __init__(self, node: int, n: int, collector: LatencyCollector,
                 bcast_mode: str = "clone"):
        super().__init__(node, collector)
        if bcast_mode not in ("clone", "relay"):
            raise ValueError(f"unknown bcast_mode {bcast_mode!r}")
        self.calc = QuadrantCalculator(node, n)
        self.bcast_mode = bcast_mode

    # ------------------------------------------------------------------
    # injection side
    # ------------------------------------------------------------------
    def unicast_queue_table(self):
        """The quadrant queue of every destination (see ``Adapter``)."""
        return ([self.queues[q] for q in self.calc.COLUMN_ORDER],
                self.calc.quadrant_column())

    def _unicast_queue(self, dst: int) -> Optional[str]:
        quadrant = self.calc.quadrant(dst)
        fs = self.fault_state
        if fs is not None:
            quadrant = self._usable_quadrant(fs, quadrant, dst)
            if quadrant is None:
                return None
        return self.queues[quadrant]

    def _relay_queue(self, dst: int, forward: bool) -> Optional[str]:
        """Ablation relays enter the quadrant queue toward ``dst``, at the
        source and at every hop alike."""
        quadrant = self.calc.quadrant(dst)
        if self.fault_state is not None and self._entry_dead(quadrant):
            return None
        return self.queues[quadrant]

    def _entry_port(self, quadrant: str):
        """The link output port a quadrant queue streams into (each
        local queue feeds exactly one non-ejection port)."""
        for p in getattr(self.router, self.queues[quadrant]).fed:
            if not p.is_ejection:
                return p
        return None

    def _entry_dead(self, quadrant: str) -> bool:
        """The quadrant's entry link is gone (under a fault state).  A
        collective branch never detours: this kills it at the source."""
        port = self._entry_port(quadrant)
        return port is None or port.dead

    def _usable_quadrant(self, fs, preferred: str,
                         dst: int) -> Optional[str]:
        """Source-side graceful degradation: the preferred quadrant, or
        the first other quadrant whose entry link is alive and whose
        far end can still reach ``dst`` in the live graph.  Quadrant
        queues are the only place a Quarc packet can change direction
        (rim ingress cannot turn), so this is the topology's one
        reroute opportunity; ``None`` means drop at source rather than
        park the packet behind a dead link forever."""
        order = [preferred] + [q for q in (RIGHT, LEFT, XRIGHT, XLEFT)
                               if q != preferred]
        for q in order:
            port = self._entry_port(q)
            if port is None or port.dead:
                continue
            nxt = fs._next_node(port)
            if nxt is None or fs.node_dead(nxt):
                continue
            if not fs.src_cannot_reach(nxt, dst):
                return q
        return None

    def _branches(self) -> List[Tuple[str, int]]:
        """A broadcast's branches in push order (Fig. 6): each quadrant
        and the branch's last node."""
        n, v = self.net.n, self.node
        q = n // 4
        ends = ((RIGHT, v + q), (LEFT, v - q), (XLEFT, v + q + 1),
                (XRIGHT, v + 3 * q - 1))
        return [(k, d % n) for k, d in ends[:4 if q > 1 else 3]]

    def broadcast_table(self):
        """A true broadcast's queue and branch end per quadrant (see
        ``Adapter``); ``None`` in relay mode."""
        if self.bcast_mode == "relay":
            return None
        return [(self.queues[quadrant], dst)
                for quadrant, dst in self._branches()]

    def send_broadcast(self, size: int, now: int) -> CollectiveOp:
        """Emit a true broadcast: one tagged packet per quadrant (Fig. 6)."""
        if self.bcast_mode == "relay":
            return self._send_chains(None, BROADCAST, size, now)
        op = self._open(BROADCAST, now, self.net.n - 1)
        fs = self.fault_state
        for quadrant, dst in self._branches():
            if fs is not None and self._entry_dead(quadrant):
                fs.source_drop_branch(op)
                continue
            pkt = Packet(self.node, dst, size, BROADCAST, created=now, op=op)
            self._push(self.queues[quadrant], pkt)
        return op

    def send_multicast(self, targets: Iterable[int], size: int,
                       now: int) -> CollectiveOp:
        """BRCP multicast: per-quadrant branch packets with bitstrings.

        Each branch's destination is its farthest target; intermediate
        targets are flagged by hop-distance bits, non-targets on the path
        are transited without a local copy.
        """
        tgts = self._targets(targets)
        op = self._open(MULTICAST, now, len(tgts))
        branches: Dict[str, List[int]] = {}
        for t in tgts:
            branches.setdefault(self.calc.quadrant(t), []).append(t)
        fs = self.fault_state
        for quadrant, nodes in branches.items():
            if fs is not None and self._entry_dead(quadrant):
                fs.source_drop_branch(op)
                continue
            far = max(nodes, key=self.calc.hop_distance)
            bits = 0
            for t in nodes:
                bits |= 1 << self.calc.hop_distance(t)
            pkt = Packet(self.node, far, size, MULTICAST, created=now,
                         op=op, bitstring=bits)
            self._push(self.queues[quadrant], pkt)
        return op
