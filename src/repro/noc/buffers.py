"""Virtual-channel FIFO buffers -- the IPC "lanes" of the paper's Fig. 4.

Each physical input port of a switch owns one :class:`FlitBuffer` per
virtual channel.  The buffer also carries the wormhole bookkeeping the
paper assigns to the FCU's switching table: once a header flit has been
granted an output port and output VC, the buffer remembers them so body
and tail flits follow the header without re-arbitration ("if the FCU
receives a body flit then it reads the switching information from the
stored table", Sec. 2.3.2).  The table entry is cleared when the tail flit
departs.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.packet import Packet
    from repro.noc.ports import OutPort
    from repro.noc.router import Router

__all__ = ["FlitBuffer", "EMPTY", "LOCAL_QUEUE_DEPTH"]

#: Capacity of a local queue: PE-side memory, modelled deep (switch
#: lanes are small).
LOCAL_QUEUE_DEPTH = 1 << 20

#: The queue of a buffer no flit was ever pushed into, shared by all of
#: them: immutable, so a mutation that bypasses :meth:`FlitBuffer.push`
#: fails instead of filling every buffer at once.
EMPTY: tuple = ()


class FlitBuffer:
    """One VC lane of flit storage, with wormhole switching state.

    Attributes
    ----------
    q:
        The flit FIFO; entries are ``(packet, flit_index)`` tuples.  The
        shared :data:`EMPTY` until the first :meth:`push` (an array
        engine keeps flits in its own arrays, so on that path most
        buffers never hold a ``deque``).
    capacity:
        Maximum occupancy.  Upstream senders check this before pushing,
        which models LocalLink ``CH_STATUS_N`` back-pressure with a
        one-cycle credit loop.
    cur_out / cur_vc / cur_deliver:
        Switching-table entry for the packet currently streaming out of
        this buffer: granted output port, granted output VC, and whether
        each forwarded flit is also cloned to the local sink (the Quarc
        broadcast absorb-and-forward flag on the ingress multiplexer).
    router:
        Owning router; pushes/pops maintain ``router.flits`` so the network
        step can skip completely idle routers.
    row:
        Index in the network's flat ``(node, creation)`` buffer order
        (``Network.iter_buffers``), or -1 outside a built network.
    """

    __slots__ = ("q", "capacity", "label", "router", "role", "row",
                 "cur_out", "cur_vc", "cur_deliver", "cur_pkt", "fed",
                 "sink")

    def __init__(self, capacity: int, label: str = "",
                 router: Optional["Router"] = None, role: int = -1,
                 row: int = -1):
        if capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1 (got {capacity})")
        self.q = EMPTY
        self.row = row
        self.capacity = capacity
        self.label = label
        self.router = router
        #: Output ports this buffer feeds (inverse of ``OutPort.feeders``),
        #: in port order; ``Router.__init__`` fills both.
        self.fed: list = []
        #: small-int port-role tag set by the owning router; lets
        #: ``route_head`` dispatch on the ingress direction without dict
        #: lookups (it runs once per blocked header flit per cycle).
        self.role = role
        self.cur_out: Optional["OutPort"] = None
        self.cur_vc = 0
        self.cur_deliver = False
        #: The packet the switching-table entry belongs to.  Needed by
        #: the fault purge to find wormholes latched *through* a buffer
        #: whose flits are all momentarily elsewhere (``cur_out`` alone
        #: cannot name the packet once the queue is empty).
        self.cur_pkt: Optional["Packet"] = None
        #: Array-resident state redirect.  ``None`` on the reference path
        #: (one attribute test per push); when an
        #: :class:`~repro.sim.array_backend.ArrayBackend` owns the
        #: simulation state, it installs its staging list here and every
        #: :meth:`push_packet` appends ``(row, packet)`` instead of
        #: touching the object deque -- the flits enter the flat arrays
        #: at the next cycle's fold, never this object graph.
        self.sink: Optional[list] = None

    # -- occupancy ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.q)

    @property
    def free(self) -> int:
        return self.capacity - len(self.q)

    @property
    def empty(self) -> bool:
        return not self.q

    @property
    def full(self) -> bool:
        return len(self.q) >= self.capacity

    # -- flit movement --------------------------------------------------
    def push(self, packet: "Packet", flit_index: int) -> None:
        """Append a flit.  Raises on overflow -- the sender must have
        checked ``full`` first (credit discipline); a raise here means a
        flow-control bug, not a recoverable condition."""
        if self.sink is not None:
            raise RuntimeError(
                f"single flit pushed into {self.label!r} while an array "
                f"engine owns the state: it stages whole packets "
                f"(push_packet); edit flits through its materialize() / "
                f"resync() pair")
        q = self.q
        if len(q) >= self.capacity:
            raise OverflowError(
                f"flit pushed into full buffer {self.label!r} "
                f"(capacity {self.capacity})")
        if q is EMPTY:
            q = self.q = deque()
        q.append((packet, flit_index))
        r = self.router
        if r is not None:
            r.flits += 1

    def push_packet(self, packet: "Packet") -> None:
        """Append all flits of ``packet`` (indices ``0..size-1``) in one
        call -- the injection path used by the network adapters.  On the
        reference path this is just the per-flit loop; when an array
        engine owns the state, the whole packet is staged as a single
        entry, so injection cost does not scale with message length on
        the Python side."""
        r = self.router
        if r is not None and r.net is not None:
            fs = r.net.fault_state
            if fs is not None:
                # sole entry point for flits entering the network
                # (adapters and relay regeneration both land here), so
                # this one counter anchors the conservation invariant
                fs.injected_flits += packet.size
        if self.sink is not None:
            self.sink.append((self.row, packet))
            return
        if r is not None and r.net is not None:
            r.net.flits_injected += packet.size     # the engine counts its own
        for fidx in range(packet.size):
            self.push(packet, fidx)

    def head(self) -> Optional[Tuple["Packet", int]]:
        return self.q[0] if self.q else None

    def pop(self) -> Tuple["Packet", int]:
        item = self.q.popleft()
        r = self.router
        if r is not None:
            r.flits -= 1
        return item

    def clear_switching(self) -> None:
        """Delete the FCU table entry (tail flit has departed)."""
        self.cur_out = None
        self.cur_vc = 0
        self.cur_deliver = False
        self.cur_pkt = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlitBuffer {self.label!r} {len(self.q)}/{self.capacity}"
                f"{' streaming' if self.cur_out is not None else ''}>")
