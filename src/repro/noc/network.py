"""Network assembly and the per-cycle simulation step.

A :class:`Network` owns N routers and N adapters (network interfaces /
transceivers).  It is deliberately topology-agnostic: a wiring table
(:mod:`repro.noc.wiring`) describes the routers, built from it on first
read, and adapters implement injection and delivery policy (Sec. 2.4's
transceiver for the Quarc, the one-port adapter for the Spidergon).

The step loop is the simulator's hot path; see :mod:`repro.noc.router` for
the two-phase semantics.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from repro.noc.packet import RELAY, UNICAST, CollectiveOp, Packet
from repro.noc.ports import Move
from repro.noc.router import Router, commit_move

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.collector import LatencyCollector
    from repro.noc.buffers import FlitBuffer
    from repro.noc.wiring import Wiring

__all__ = ["Network", "Adapter", "flit_key"]


class Adapter:
    """Network interface (PE side) of one node: the contract every
    topology shares.

    * :meth:`send` accepts a unicast: stamp ``created``, count it
      generated, push it into :meth:`_unicast_queue` (``None``: a fault
      left no way out, drop it at the source).  A queue is named by its
      switch attribute (``Router.LANES`` / ``QUEUES``).
    * :meth:`receive_tail` runs when a packet's tail reaches this node
      (ejection or broadcast clone): a unicast is ``on_unicast``, a
      collective tail ``on_collective_tail``, then a relay segment
      :meth:`_relay_next`.
    * A relay chain (broadcast by unicast) visits a collective's
      targets one segment at a time, split by rim side
      (:meth:`_send_chains`); each packet carries the whole chain and
      its position in it (``meta["chain"]`` / ``meta["pos"]``), so a hop
      is O(1).  :meth:`_relay_queue` says which queue a segment enters.

    A subclass keeps its topology: which queue a message enters, and how
    ``send_broadcast`` / ``send_multicast`` fan out.  An array engine
    relies on this contract: it stages unicasts by
    :meth:`unicast_queue_table` and broadcasts by :meth:`broadcast_table`,
    accounts unicast tails straight into the collector, takes collective
    receipts in its kernel and stops its batch for
    :attr:`reinjecting_tails` only, to call :meth:`_relay_next`.
    """

    __slots__ = ("node", "net", "collector")

    #: traffic kinds whose tail may push a packet back into the network
    #: (:meth:`_relay_next`); every other tail only feeds the collector
    reinjecting_tails = (RELAY,)

    def __init__(self, node: int, collector: "LatencyCollector"):
        self.node = node
        self.collector = collector
        self.net: Optional["Network"] = None

    @property
    def router(self) -> Router:
        """This node's router (the network's, built on first read)."""
        return self.net.routers[self.node]

    @property
    def fault_state(self):
        """The network's installed fault state, or ``None``."""
        return self.net.fault_state

    # -- injection -------------------------------------------------------
    def _push(self, queue: str, pkt: Packet) -> None:
        """Push ``pkt`` into this node's queue ``queue``; staged by the
        queue's row while an array engine owns an unbuilt graph."""
        net = self.net
        if net.built is None and net.state_owner is not None:
            w = net.wiring
            net.state_owner.rows.append(
                (self.node * w.nbuf + w.switch.groups[queue], pkt))
        else:
            getattr(self.router, queue).push_packet(pkt)

    def _unicast_queue(self, dst: int) -> Optional[str]:
        return "local_q"

    def unicast_queue_table(self):
        """Where :meth:`send` queues a healthy unicast: ``(queues,
        slot)``, ``slot`` an integer numpy column over every destination
        into the list ``queues`` of queue names (-1: ``send`` raises), by
        arithmetic -- the array engine stages ``Network.send_unicast``
        rows by it instead of packets."""
        import numpy as np      # the array engine's dependency, not ours
        return ["local_q"], np.zeros(self.net.n, np.int64)

    def broadcast_table(self):
        """``[(queue, dst), ...]``: the packets, in push order, of a
        fault-free ``send_broadcast`` that is one packet per queue to its
        branch's last node (the array engine stages by it), or None."""
        return None

    def send(self, pkt: Packet, now: int) -> None:
        """Accept a unicast from the PE and queue it."""
        if pkt.traffic != UNICAST:
            raise ValueError("send() is for unicasts; use send_broadcast/"
                             "send_multicast for collectives")
        pkt.created = now
        self.collector.note_generated(collective=False)
        q = self._unicast_queue(pkt.dst)
        if q is None:
            self.fault_state.source_drop_unicast()
            return
        self._push(q, pkt)

    def _targets(self, targets: Iterable[int]) -> List[int]:
        """A multicast's remote targets, sorted."""
        tgts = sorted(set(targets) - {self.node})
        if not tgts:
            raise ValueError("multicast needs at least one remote target")
        return tgts

    def _open(self, kind: int, now: int, expected: int) -> CollectiveOp:
        """A new collective op, counted generated."""
        op = CollectiveOp(self.node, now, expected=expected, kind=kind)
        self.collector.note_generated(collective=True)
        return op

    # -- relay chains (broadcast by unicast) -----------------------------
    def _relay_queue(self, dst: int, forward: bool) -> Optional[str]:
        """The queue a relay segment to ``dst`` enters: at the source
        (``forward`` False) or regenerated at a relay hop; ``None`` if a
        fault leaves it no way out."""
        raise NotImplementedError

    def _send_chains(self, targets: Optional[List[int]], kind: int,
                     size: int, now: int) -> CollectiveOp:
        """Start a collective as two relay chains, clockwise over the
        nodes at most N/2 hops that way and counter-clockwise over the
        rest, each in rim order: every other node (``targets`` None, a
        broadcast) or a multicast's targets."""
        n, node = self.net.n, self.node
        half = n // 2
        chains = [[(node + k) % n for k in range(1, half + 1)],
                  [(node - k) % n for k in range(1, n - half)]]
        if targets is not None:
            keep = set(targets)
            chains = [[t for t in c if t in keep] for c in chains]
        op = self._open(kind, now, sum(map(len, chains)))
        for chain in chains:
            if chain:
                self._relay(op, tuple(chain), 0, size, now, False)
        return op

    def _relay(self, op: CollectiveOp, chain: tuple, pos: int, size: int,
               now: int, forward: bool) -> None:
        dst = chain[pos]
        q = self._relay_queue(dst, forward)
        fs = self.fault_state
        if q is None or (fs is not None
                         and fs.src_cannot_reach(self.node, dst)):
            # the chain cannot start or continue: its remaining
            # receivers are lost
            fs.source_drop_branch(op)
            return
        pkt = Packet(self.node, dst, size, RELAY, created=now, op=op)
        pkt.meta["chain"] = chain
        pkt.meta["pos"] = pos
        if forward:
            self.collector.on_relay_segment()
        self._push(q, pkt)

    def _relay_next(self, pkt: Packet, now: int) -> None:
        """Regenerate a delivered relay segment toward the chain's next
        target (its receipt is the collector's, taken first)."""
        chain, pos = pkt.meta["chain"], pkt.meta["pos"] + 1
        if pos < len(chain):
            self._relay(pkt.op, chain, pos, pkt.size, now, True)

    # -- delivery --------------------------------------------------------
    def receive_tail(self, pkt: Packet, now: int) -> None:
        if pkt.traffic == UNICAST:
            self.collector.on_unicast(pkt, now)
            return
        if pkt.op is not None:      # no tracker: nothing to record
            self.collector.on_collective_tail(pkt.op, self.node, now)
        if pkt.traffic == RELAY:
            self._relay_next(pkt, now)


def flit_key(pkt: "Packet", fidx: int):
    """A flit's identity in :meth:`Network.state_snapshot`: stable
    across sessions (no object identities, no global packet ids).

    ``pkt.vclass`` is deliberately absent.  Its dimension-turn reset
    (mesh/torus ``route_head``) is applied lazily by the reference loop
    (at the next arbitration scan) but may be applied eagerly by caching
    backends -- both before any read, so the transient attribute
    difference is unobservable.  A genuine VC divergence still shows up
    as flits in different VC lanes."""
    return (pkt.src, pkt.dst, pkt.size, pkt.traffic, pkt.created, fidx)


class Network:
    """N routers + N adapters + the step loop.

    Parameters
    ----------
    wiring:
        The :class:`~repro.noc.wiring.Wiring` of the switches: the
        routers are built from it on first read (:attr:`routers`), and
        the array engine lays its static arrays out from it.
    adapters:
        One adapter per node, index == node id.
    name:
        Topology name for reports ("quarc", "spidergon", ...).
    """

    def __init__(self, wiring: "Wiring", adapters: List[Adapter],
                 name: str = "noc"):
        if wiring.n != len(adapters):
            raise ValueError("routers and adapters must pair up one per node")
        self.adapters = adapters
        self.name = name
        self.wiring = wiring
        self.n = len(adapters)
        #: ``(cycle, reason)`` of the object graph's build (:meth:`objects`)
        self.built: Optional[tuple] = None
        self.cycle = 0
        self.flits_moved = 0
        self.deliveries = 0
        #: flits that entered a queue / left through an ejection port, on
        #: either backend: ``SimBackend.run_mix`` checks their balance
        self.flits_injected = 0
        self.flits_ejected = 0
        self._moves: List[Move] = []
        self.on_tail: Optional[Callable[[int, "Packet", int], None]] = None
        #: called as ``on_tagged_tail(node, src, tag, created, now)`` for a
        #: delivered unicast sent with a ``tag`` (the closed-loop engine's)
        self.on_tagged_tail: Optional[Callable[..., None]] = None
        #: called as ``on_continue(cls, k=1)`` for the ``k`` messages of
        #: class ``cls`` the network sent on the traffic's behalf --
        #: continuations, requests an array engine's kernel fired (the
        #: mix counts them generated)
        self.on_continue: Optional[Callable[..., None]] = None
        #: continuations waiting for their cycle on the object path:
        #: ``{cycle: [(home, dst, size, cls, tag), ...]}`` in delivery
        #: order (an array engine keeps its own in the kernel)
        self._due: Dict[int, list] = {}
        #: Fault seam: the installed :class:`repro.faults.FaultState`,
        #: or ``None``.  When set, :meth:`deliver` splits tails into
        #: delivered vs dropped, and routing dispatches through the
        #: fault-aware policy (see :meth:`repro.noc.router.Router.route`).
        self.fault_state = None
        #: State-ownership inversion hook.  ``None`` means the object
        #: graph (buffer deques, port tables) is the simulation state and
        #: :meth:`step` walks it.  When an array engine adopts the
        #: network it installs itself here; :meth:`step`,
        #: :meth:`total_flits`, :meth:`state_snapshot` and
        #: :meth:`buffer_occupancy` then delegate -- the last two after
        #: the engine materialises the object view -- so existing
        #: callers (drain loops, probes, the differential harness) stay
        #: oblivious to where the state actually lives.
        self.state_owner = None
        for a in adapters:
            a.net = self

    @cached_property
    def routers(self) -> List[Router]:
        """One router per node, built from :attr:`wiring` on first read
        (an owning engine's staging list becomes every buffer's ``sink``)."""
        if self.built is None:
            self.built = (self.cycle, "test access")
        routers = self.wiring.routers()
        owner = self.state_owner
        for r in routers:
            r.net = self
            if owner is not None:
                for b in r.in_bufs:
                    b.sink = owner.rows
        return routers

    def objects(self, reason: str) -> List[Router]:
        """:attr:`routers`, recording ``reason`` (:attr:`built`) if this
        read is the one that builds them."""
        if self.built is None:
            self.built = (self.cycle, reason)
        return self.routers

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------
    def step(self, now: Optional[int] = None) -> int:
        """Advance one cycle; returns the number of flits moved.

        ``now`` may come from the caller's own clock (every
        ``SimBackend`` loop passes its cycle counter); the simulation
        clock is kept monotonic by clamping a lagging ``now`` to
        ``self.cycle``, so mixing ``drain()`` with an externally clocked
        step can never rewind time (which would corrupt latency stamps and
        ``drain``'s cycle accounting).
        """
        owner = self.state_owner
        if owner is not None:
            return owner.step(now if now is not None else self.cycle)
        if now is None or now < self.cycle:
            now = self.cycle
        moves = self._moves
        moves.clear()
        for r in self.routers:
            if r.flits:
                r.collect(moves)
        for mv in moves:
            commit_move(mv, now, self)
        moved = len(moves)
        self.flits_moved += moved
        self.cycle = now + 1
        return moved

    # ------------------------------------------------------------------
    # injection / delivery
    # ------------------------------------------------------------------
    def send_unicast(self, node: int, dst: int, size: int,
                     cls: Optional[str], now: int, tag=None,
                     cont=None) -> None:
        """The traffic generators' unicast funnel.  An array engine takes
        the message as a row (``state_owner.rows``; its queue from
        ``Adapter.unicast_queue_table``) and builds its :class:`Packet`
        only if something reads one; with no engine, or under a fault
        state (source-side rerouting and flit accounting read the
        object), it is ``Packet`` + ``adapter.send`` -- still the public
        object API.  On the object path only, a ``tag`` comes back through
        :attr:`on_tagged_tail` when the tail is delivered, and a ``cont =
        (size, delay, cls, tag)`` is the reply ``dst`` sends back to
        ``node`` ``delay`` cycles after the tail arrives (a directory
        reply); an engine's kernel fires its own closed loop.  Its
        broadcast twin is :meth:`send_broadcast`."""
        owner = self.state_owner
        if owner is not None and (tag is not None or cont is not None):
            raise ValueError("no tag or cont on an array-owned network: its "
                             "kernel fires closed-loop transactions "
                             "(bind_sources)")
        if owner is None or self.fault_state is not None:
            pkt = Packet(node, dst, size, UNICAST, created=now)
            pkt.cls = cls
            pkt.tag = tag
            pkt.cont = cont
            self.adapters[node].send(pkt, now)
        else:
            owner.rows.append((node, dst, size, cls, now))

    def send_broadcast(self, node: int, size: int, cls: Optional[str],
                       now: int, on_complete=None) -> Optional[CollectiveOp]:
        """:meth:`send_unicast`'s twin: an engine taking broadcasts as rows
        (``broadcast_rows``) gets one (``dst`` ``None``), built only if
        read; else (a fault state, an ``on_complete(now)`` to call) it is
        ``adapter.send_broadcast``, whose op of class ``cls`` returns."""
        owner = self.state_owner
        if (owner is None or self.fault_state is not None
                or on_complete is not None or not owner.broadcast_rows):
            op = self.adapters[node].send_broadcast(size, now)
            op.cls = cls
            op.on_complete = on_complete
            return op
        owner.rows.append((node, None, size, cls, now))
        return None

    def send_unicasts(self, cyc, node, dst, size: int,
                      cls: Optional[str] = None) -> None:
        """A window of unicasts of ``size`` flits and class ``cls``, as
        numpy columns ``(cycle, node, dst)``, each sent at its cycle: an
        array engine takes the window whole, in its place among the rows;
        with no engine, or under a fault state, it is
        :meth:`send_unicast` once per row."""
        owner = self.state_owner
        if owner is None or self.fault_state is not None:
            for c, v, d in zip(cyc.tolist(), node.tolist(), dst.tolist()):
                self.send_unicast(v, d, size, cls, c)
        elif len(cyc):
            owner.rows.append((cyc, node, dst, size, cls))

    def send_broadcasts(self, cyc, node, size: int,
                        cls: Optional[str]) -> None:
        """:meth:`send_unicasts`' twin: an engine taking broadcasts as rows
        takes the window whole (``dst`` ``None``); else it is
        :meth:`send_broadcast` once per row."""
        owner = self.state_owner
        if (owner is None or self.fault_state is not None
                or not owner.broadcast_rows):
            for c, v in zip(cyc.tolist(), node.tolist()):
                self.send_broadcast(v, size, cls, c)
        elif len(cyc):
            owner.rows.append((cyc, node, None, size, cls))

    def deliver(self, node: int, pkt: "Packet", fidx: int, now: int) -> None:
        """A flit reached the PE at ``node`` (ejection or broadcast clone).

        Only tail flits trigger adapter logic: wormhole delivery is
        complete when the tail arrives, and per-flit callbacks would only
        burn cycles.
        """
        if fidx == pkt.size - 1:
            fs = self.fault_state
            if fs is not None and pkt.pid in fs.doomed:
                # a dropped packet's tail drained into the sink: count
                # it dropped, never delivered (no adapter/collector
                # accounting, no on_tail callback)
                fs.on_tail_dropped(pkt, node, now)
                return
            self.deliveries += 1
            self.adapters[node].receive_tail(pkt, now)
            if pkt.tag is not None:
                self.on_tagged_tail(node, pkt.src, pkt.tag, pkt.created, now)
            if pkt.cont is not None:
                self.continue_after(node, pkt, now)
            cb = self.on_tail
            if cb is not None:
                cb(node, pkt, now)

    # ------------------------------------------------------------------
    # continuations (directory replies)
    # ------------------------------------------------------------------
    def continue_after(self, node: int, pkt: "Packet", now: int) -> None:
        """``pkt``'s tail reached ``node`` at ``now``: file its reply."""
        size, delay, cls, tag = pkt.cont
        self._due.setdefault(now + delay, []).append(
            (node, pkt.src, size, cls, tag))

    def send_due(self, now: int) -> None:
        """Send the continuations due at ``now``, at the head of the
        cycle: before its arrivals, in the order their tails arrived."""
        due = self._due.pop(now, None)
        for home, dst, size, cls, tag in due or ():
            self.send_unicast(home, dst, size, cls, now, tag)
            if self.on_continue is not None:
                self.on_continue(cls)

    def due(self, now: int) -> List[tuple]:
        """What :meth:`send_due` and an array engine's kernel send at the
        head of cycle ``now``: ``(home, dst, size, cls)`` each."""
        out = [e[:4] for e in self._due.get(now, ())]
        owner = self.state_owner
        return out + owner.due(now) if owner is not None else out

    def pending_flits(self) -> int:
        """Flits of the continuations not sent yet."""
        n = sum(e[2] for due in self._due.values() for e in due)
        owner = self.state_owner
        return n + owner.pending_flits() if owner is not None else n

    # ------------------------------------------------------------------
    # introspection / invariant checks (used heavily by tests)
    # ------------------------------------------------------------------
    def fabric_flits(self) -> int:
        """Flits injected and not yet ejected."""
        owner = self.state_owner
        if owner is not None:
            return owner.total_flits()
        return sum(r.flits for r in self.routers)

    def total_flits(self) -> int:
        """The network's work in hand: :meth:`fabric_flits` plus the
        continuations it owes (:meth:`pending_flits`)."""
        return self.fabric_flits() + self.pending_flits()

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run without new traffic until the network empties, sending
        each continuation at its cycle.

        Returns cycles taken.  Raises ``RuntimeError`` if flits remain
        after ``max_cycles`` -- which would indicate deadlock or a stuck
        wormhole, so tests use this as a liveness oracle.
        """
        start = self.cycle
        while self.total_flits():
            if self.cycle - start > max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles; "
                    f"{self.total_flits()} flits stuck (possible deadlock)")
            self.send_due(self.cycle)
            self.step()
        return self.cycle - start

    def buffer_occupancy(self) -> List[int]:
        owner = self.state_owner
        if owner is not None:
            owner.materialize()
        return [r.occupancy() for r in self.routers]

    # ------------------------------------------------------------------
    # state export (array packing + differential debugging)
    # ------------------------------------------------------------------
    def iter_buffers(self) -> List["FlitBuffer"]:
        """Every VC lane and local queue, in deterministic (node,
        creation) order -- the canonical flat indexing for array-state
        mirrors and state snapshots."""
        return [b for r in self.routers for b in r.in_bufs]

    def iter_ports(self):
        """Every output port in deterministic (node, creation) order --
        identical to the order ``step`` collects moves in, so grants
        emitted in ascending flat-port order commit in reference order."""
        return [p for r in self.routers for p in r.out_ports]

    def state_snapshot(self) -> Dict[str, object]:
        """A structural snapshot of all mutable simulation state, keyed
        by stable labels (no object identities, no global packet ids), so
        two networks driven by different backends can be compared
        cycle-by-cycle.  Used by ``tests/differential.py`` to pinpoint
        the first diverging cycle of a backend pair."""
        owner = self.state_owner
        if owner is not None:
            owner.materialize()
        bufs = {}
        for b in self.iter_buffers():
            bufs[b.label] = {
                "q": [flit_key(p, i) for p, i in b.q],
                "cur_out": b.cur_out.name if b.cur_out is not None else None,
                "cur_vc": b.cur_vc,
                "cur_deliver": b.cur_deliver,
            }
        ports = {}
        for r in self.routers:
            for p in r.out_ports:
                ports[f"r{r.node}.{p.name}"] = {
                    "rr": p.rr,
                    "owner": [o.label if o is not None else None
                              for o in p.owner],
                    "flits_sent": p.flits_sent,
                }
        return {
            "cycle": self.cycle,
            "flits_moved": self.flits_moved,
            "deliveries": self.deliveries,
            "buffers": bufs,
            "ports": ports,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Network {self.name!r} n={self.n} cycle={self.cycle} "
                f"in_flight={self.total_flits()}>")
