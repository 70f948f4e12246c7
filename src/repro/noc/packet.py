"""Packets, flit representation and collective-operation tracking.

Flit representation
-------------------
Wormhole switching operates on flits, but allocating an object per flit
would dominate simulation cost.  A flit is therefore represented as the
tuple ``(packet, index)`` inside buffers; the flit *kind* is derived:

* ``index == 0``             -- header flit
* ``index == packet.size-1`` -- tail flit (a 1-flit packet is both)
* otherwise                  -- body flit

This mirrors the paper's packet format (Fig. 7): the header carries route
and traffic-type information, body/tail flits only carry payload, and the
FCU/OPC state machines key their behaviour off the flit type.  The
bit-exact 34-bit encoding lives in :mod:`repro.core.packet_format`; the
simulator keeps the fields unpacked for speed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

__all__ = ["Packet", "CollectiveOp", "UNICAST", "BROADCAST", "MULTICAST",
           "RELAY", "TRAFFIC_NAMES"]

#: Traffic classes (values match the 3-bit header traffic-type field).
UNICAST = 0
MULTICAST = 1
BROADCAST = 2
#: A Spidergon broadcast-by-unicast relay segment.  On the wire it is a
#: unicast whose header carries the broadcast tag; the distinct constant
#: keeps the simulator's accounting honest.
RELAY = 3

TRAFFIC_NAMES = {UNICAST: "unicast", MULTICAST: "multicast",
                 BROADCAST: "broadcast", RELAY: "relay"}

_next_pid = 0


def _fresh_pid() -> int:
    global _next_pid
    _next_pid += 1
    return _next_pid


class Packet:
    """A wormhole packet (one header + body flits + tail).

    Attributes
    ----------
    src, dst:
        Source node and destination address in the header flit.  For
        broadcast/multicast, ``dst`` is the *last node of the branch* as
        per the paper's BRCP routing (Sec. 2.5.2).
    size:
        Total number of flits, header and tail included (the paper's M).
    traffic:
        One of ``UNICAST``, ``MULTICAST``, ``BROADCAST``, ``RELAY``.
    vclass:
        Dateline virtual-channel class: packets start on class 0 and are
        upgraded to class 1 when they traverse a dateline rim link, the
        standard deadlock-avoidance discipline for rings ("each physical
        link is shared by two virtual channels in order to avoid
        deadlock", Sec. 2.1).
    op:
        The :class:`CollectiveOp` this packet serves, if any.
    bitstring:
        Multicast target bitmap; bit ``h`` set means the node at hop
        distance ``h`` along the branch is a target (Sec. 2.5.3).
    meta:
        Small per-packet scratch dict: a relay segment's ``chain`` of
        targets and its ``pos`` in it.
    cls:
        Workload traffic-class name (multi-class mixes tag packets so
        the collector can break latency down per class); ``None`` on the
        untagged single-class path.
    tag:
        What ``Network.send_unicast(..., tag=)`` attached, handed to
        ``Network.on_tagged_tail`` on delivery; ``None`` if untagged.
    cont:
        The reply ``(size, delay, cls, tag)`` the destination sends
        back when the tail arrives (``Network.send_unicast(..., cont=)``);
        ``None`` if none.
    """

    __slots__ = ("pid", "src", "dst", "size", "traffic", "created",
                 "vclass", "op", "bitstring", "meta", "cls", "tag", "cont")

    def __init__(self, src: int, dst: int, size: int, traffic: int = UNICAST,
                 created: int = 0, op: Optional["CollectiveOp"] = None,
                 bitstring: int = 0):
        if size < 1:
            raise ValueError(f"packet size must be >= 1 flit (got {size})")
        self.pid = _fresh_pid()
        self.src = src
        self.dst = dst
        self.size = size
        self.traffic = traffic
        self.created = created
        self.vclass = 0
        self.op = op
        self.bitstring = bitstring
        self.meta: Dict[str, int] = {}
        self.cls: Optional[str] = None
        self.tag = None
        self.cont = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet #{self.pid} {TRAFFIC_NAMES[self.traffic]} "
                f"{self.src}->{self.dst} M={self.size}>")


class CollectiveOp:
    """Tracks one logical broadcast/multicast across its branch packets.

    A Quarc broadcast spawns up to four packets (one per quadrant); a
    Spidergon broadcast spawns a chain of relay packets.  All of them point
    at the same ``CollectiveOp`` so completion (every expected receiver
    saw the tail flit) and the two latency metrics can be recorded:

    * **completion latency** -- creation to *last* receiver (the metric we
      plot as broadcast latency),
    * **delivery latency** -- creation to each individual receiver.
    """

    __slots__ = ("src", "created", "expected", "deliveries", "completed_at",
                 "kind", "cls", "dropped", "on_complete")

    def __init__(self, src: int, created: int, expected: int,
                 kind: int = BROADCAST):
        if expected < 1:
            raise ValueError("collective op needs at least one receiver")
        self.src = src
        self.created = created
        self.expected = expected
        self.deliveries: Dict[int, int] = {}
        self.completed_at: Optional[int] = None
        self.kind = kind
        #: workload traffic-class name (multi-class accounting), or None
        self.cls: Optional[str] = None
        #: at least one branch of this operation was dropped by a fault
        #: (the op can then never complete; counted once per op)
        self.dropped = False
        #: called as ``on_complete(now)`` by the collector once it has
        #: accounted the completion (the closed loop's phase barrier)
        self.on_complete: Optional[Callable[[int], None]] = None

    def deliver(self, node: int, now: int) -> bool:
        """Record tail-flit arrival at ``node``.  Returns True on the
        delivery that completes the operation.  Duplicate arrivals at the
        same node (e.g. the antipodal node reached by both cross branches)
        are idempotent."""
        if node in self.deliveries:
            return False
        self.deliveries[node] = now
        if len(self.deliveries) == self.expected:
            self.completed_at = now
            return True
        return False

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    @property
    def completion_latency(self) -> Optional[int]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.created
