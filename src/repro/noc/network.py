"""Network assembly and the per-cycle simulation step.

A :class:`Network` owns N routers and N adapters (network interfaces /
transceivers).  It is deliberately topology-agnostic: the topology package
describes the wiring, a router factory builds the switches, and adapters
implement injection and delivery policy (the transceiver of Sec. 2.4 for
the Quarc, the one-port adapter for the Spidergon).

The step loop is the simulator's hot path; see :mod:`repro.noc.router` for
the two-phase semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.noc.packet import UNICAST, Packet
from repro.noc.ports import Move
from repro.noc.router import Router, commit_move

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.buffers import FlitBuffer

__all__ = ["Network", "Adapter", "flit_key"]


class Adapter:
    """Base network interface (PE-side).

    Concrete adapters implement:

    * :meth:`send` -- accept a message from the PE, flit-ize it and place
      the flits into the appropriate injection queue(s);
    * :meth:`receive_tail` -- called when a packet's tail flit reaches
      this node (ejection or broadcast clone), for delivery accounting and
      Spidergon-style broadcast regeneration.

    Optional declarations (``unicast_via_collector``, ``reinjecting_tails``,
    ``collective_via_collector``, ``unicast_queue_table()``: see
    ``QuarcTransceiver``) let an array engine skip the :class:`Packet` or,
    for a tail that is the collector's alone, this call; else the object path.
    """

    __slots__ = ("node", "net")

    def __init__(self, node: int):
        self.node = node
        self.net: Optional["Network"] = None

    def send(self, pkt: "Packet", now: int) -> None:
        raise NotImplementedError

    def receive_tail(self, pkt: "Packet", now: int) -> None:
        raise NotImplementedError


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
    routers:
        One router per node, index == node id.
    adapters:
        One adapter per node, index == node id.
    name:
        Topology name for reports ("quarc", "spidergon", ...).
    """

    def __init__(self, routers: List[Router], adapters: List[Adapter],
                 name: str = "noc"):
        if len(routers) != len(adapters):
            raise ValueError("routers and adapters must pair up one per node")
        self.routers = routers
        self.adapters = adapters
        self.name = name
        self.n = len(routers)
        self.cycle = 0
        self.flits_moved = 0
        self.deliveries = 0
        self._moves: List[Move] = []
        self.on_tail: Optional[Callable[[int, "Packet", int], None]] = None
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
        for r in routers:
            r.net = self
        for a in adapters:
            a.net = self

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
                     cls: Optional[str], now: int) -> None:
        """The traffic generators' unicast funnel.  An array engine whose
        adapters all declare ``unicast_queue_table`` takes the message as
        a row (``state_owner.rows``) and builds its :class:`Packet` only
        if something reads one; with no engine, or under a fault state
        (source-side rerouting and flit accounting read the object), it
        is ``Packet`` + ``adapter.send`` -- still the public object API."""
        owner = self.state_owner
        rows = (owner.rows if owner is not None and self.fault_state is None
                else None)
        if rows is None:
            pkt = Packet(node, dst, size, UNICAST, created=now)
            pkt.cls = cls
            self.adapters[node].send(pkt, now)
        else:
            rows.append((node, dst, size, cls, now))

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
            cb = self.on_tail
            if cb is not None:
                cb(node, pkt, now)

    # ------------------------------------------------------------------
    # introspection / invariant checks (used heavily by tests)
    # ------------------------------------------------------------------
    def total_flits(self) -> int:
        owner = self.state_owner
        if owner is not None:
            return owner.total_flits()
        return sum(r.flits for r in self.routers)

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run without new traffic until the network empties.

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
