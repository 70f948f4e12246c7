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
doubled cross link.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.core.collector import LatencyCollector
from repro.core.quadrant import QuadrantCalculator
from repro.noc.network import Adapter
from repro.noc.packet import (BROADCAST, MULTICAST, RELAY, UNICAST,
                              CollectiveOp, Packet)
from repro.topologies.quarc import LEFT, RIGHT, XLEFT, XRIGHT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.quarc_router import QuarcRouter

__all__ = ["QuarcTransceiver"]


class QuarcTransceiver(Adapter):
    """All-port network adapter for one Quarc node."""

    __slots__ = ("router", "calc", "collector", "queues", "bcast_mode")

    def __init__(self, node: int, router: "QuarcRouter",
                 collector: Optional[LatencyCollector] = None,
                 bcast_mode: str = "clone"):
        super().__init__(node)
        if bcast_mode not in ("clone", "relay"):
            raise ValueError(f"unknown bcast_mode {bcast_mode!r}")
        self.router = router
        self.calc = QuadrantCalculator(node, router.n)
        self.collector = collector or LatencyCollector()
        self.bcast_mode = bcast_mode
        self.queues = {
            RIGHT: router.loc_r,
            LEFT: router.loc_l,
            XRIGHT: router.loc_xr,
            XLEFT: router.loc_xl,
        }

    # ------------------------------------------------------------------
    # injection side
    # ------------------------------------------------------------------
    #: unicast delivery is exactly ``collector.on_unicast`` -- lets array
    #: engines account unicast tails straight from their payload columns
    unicast_via_collector = True
    #: ... and the tail of a collective kind not listed below exactly
    #: ``collector.on_collective_tail(pkt.op, node, now)`` (nothing if it
    #: has no ``op``), so neither need reach ``receive_tail``
    collective_via_collector = True
    #: traffic kinds whose tail ``receive_tail`` may answer by pushing a
    #: packet back into the network (``_relay_forward``); every other
    #: tail only feeds the op tracker and the collector, so an array
    #: engine need not end its batch of cycles for it
    reinjecting_tails = (RELAY,)

    def unicast_queue_table(self):
        """Where :meth:`send` queues a healthy unicast: ``(queues, slot)``,
        ``slot`` an integer numpy column over every destination into the
        buffer list ``queues`` (-1: ``send`` raises), by arithmetic.  It
        promises ``send`` otherwise only stamps ``created`` and calls
        ``collector.note_generated``, so an array engine may stage
        ``Network.send_unicast`` rows instead of packets."""
        return ([self.queues[q] for q in self.calc.COLUMN_ORDER],
                self.calc.quadrant_column())

    def _enqueue(self, quadrant: str, pkt: Packet) -> None:
        self.queues[quadrant].push_packet(pkt)

    def _entry_port(self, quadrant: str):
        """The link output port a quadrant queue streams into (each
        local queue feeds exactly one non-ejection port)."""
        for p in self.queues[quadrant].fed:
            if not p.is_ejection:
                return p
        return None

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

    def send(self, pkt: Packet, now: int) -> None:
        """Accept a unicast from the PE: quadrant-select and enqueue."""
        if pkt.traffic != UNICAST:
            raise ValueError("send() is for unicasts; use send_broadcast/"
                             "send_multicast for collectives")
        pkt.created = now
        self.collector.note_generated(collective=False)
        quadrant = self.calc.quadrant(pkt.dst)
        fs = self.net.fault_state if self.net is not None else None
        if fs is not None:
            quadrant = self._usable_quadrant(fs, quadrant, pkt.dst)
            if quadrant is None:
                fs.source_drop_unicast()
                return
        self._enqueue(quadrant, pkt)

    def send_broadcast(self, size: int, now: int) -> CollectiveOp:
        """Emit a true broadcast: one tagged packet per quadrant (Fig. 6)."""
        n = self.router.n
        op = CollectiveOp(self.node, now, expected=n - 1, kind=BROADCAST)
        self.collector.note_generated(collective=True)
        if self.bcast_mode == "relay":
            self._send_relay_broadcast(size, now, op)
            return op
        q = n // 4
        branch_dsts = {
            RIGHT: (self.node + q) % n,
            LEFT: (self.node - q) % n,
            XLEFT: (self.node + q + 1) % n,
            XRIGHT: (self.node + 3 * q - 1) % n if q > 1 else None,
        }
        fs = self.net.fault_state if self.net is not None else None
        for quadrant, dst in branch_dsts.items():
            if dst is None:
                continue
            if fs is not None:
                port = self._entry_port(quadrant)
                if port is None or port.dead:
                    # collective branches never detour: a dead entry
                    # link kills the whole branch at the source
                    fs.source_drop_branch(op)
                    continue
            pkt = Packet(self.node, dst, size, BROADCAST, created=now, op=op)
            self._enqueue(quadrant, pkt)
        return op

    def send_multicast(self, targets: Iterable[int], size: int,
                       now: int) -> CollectiveOp:
        """BRCP multicast: per-quadrant branch packets with bitstrings.

        Each branch's destination is its farthest target; intermediate
        targets are flagged by hop-distance bits, non-targets on the path
        are transited without a local copy.
        """
        tgts = sorted(set(targets) - {self.node})
        if not tgts:
            raise ValueError("multicast needs at least one remote target")
        op = CollectiveOp(self.node, now, expected=len(tgts), kind=MULTICAST)
        self.collector.note_generated(collective=True)
        branches: Dict[str, List[int]] = {}
        for t in tgts:
            branches.setdefault(self.calc.quadrant(t), []).append(t)
        fs = self.net.fault_state if self.net is not None else None
        for quadrant, nodes in branches.items():
            if fs is not None:
                port = self._entry_port(quadrant)
                if port is None or port.dead:
                    fs.source_drop_branch(op)
                    continue
            far = max(nodes, key=self.calc.hop_distance)
            bits = 0
            for t in nodes:
                bits |= 1 << self.calc.hop_distance(t)
            pkt = Packet(self.node, far, size, MULTICAST, created=now,
                         op=op, bitstring=bits)
            self._enqueue(quadrant, pkt)
        return op

    # -- ablation: broadcast-by-unicast over the Quarc links -------------
    def _send_relay_broadcast(self, size: int, now: int,
                              op: CollectiveOp) -> None:
        n = self.router.n
        cw_count = n // 2            # ceil((N-1)/2) for even N
        ccw_count = (n - 1) - cw_count
        fs = self.net.fault_state if self.net is not None else None
        for step, count in ((1, cw_count), (-1, ccw_count)):
            if count == 0:
                continue
            first = (self.node + step) % n
            quadrant = self.calc.quadrant(first)
            if fs is not None:
                port = self._entry_port(quadrant)
                if (port is None or port.dead
                        or fs.src_cannot_reach(self.node, first)):
                    fs.source_drop_branch(op)
                    continue
            pkt = Packet(self.node, first, size, RELAY, created=now, op=op)
            pkt.meta["dir"] = step
            pkt.meta["remaining"] = count - 1
            self._enqueue(quadrant, pkt)

    # ------------------------------------------------------------------
    # delivery side
    # ------------------------------------------------------------------
    def receive_tail(self, pkt: Packet, now: int) -> None:
        t = pkt.traffic
        if t == UNICAST:
            self.collector.on_unicast(pkt, now)
        elif t == RELAY:
            self._relay_forward(pkt, now)
        elif pkt.op is not None:    # no tracker: nothing to record
            self.collector.on_collective_tail(pkt.op, self.node, now)

    def _relay_forward(self, pkt: Packet, now: int) -> None:
        """Ablation-mode relay hop: absorb, regenerate, re-inject."""
        op = pkt.op
        if op is not None:
            self.collector.on_collective_tail(op, self.node, now)
        remaining = pkt.meta.get("remaining", 0)
        if remaining <= 0:
            return
        step = pkt.meta["dir"]
        nxt = (self.node + step) % self.router.n
        fs = self.net.fault_state if self.net is not None else None
        if fs is not None:
            quadrant = self.calc.quadrant(nxt)
            port = self._entry_port(quadrant)
            if (port is None or port.dead
                    or fs.src_cannot_reach(self.node, nxt)):
                # the relay chain cannot continue: the remaining
                # receivers of this broadcast are lost
                fs.source_drop_branch(op)
                return
        new = Packet(self.node, nxt, pkt.size, RELAY, created=now, op=op)
        new.meta["dir"] = step
        new.meta["remaining"] = remaining - 1
        self.collector.on_relay_segment()
        self._enqueue(self.calc.quadrant(nxt), new)
