"""Output ports: VC allocation, arbitration and credit checks.

An :class:`OutPort` bundles what the paper's switch spreads over three
blocks (Fig. 4):

* the **VC arbiter** -- chooses among the input lanes requesting this
  output (round-robin, which gives the "equal opportunity between both
  channels of the same input port" the paper's timer-based FSM aims for);
* the **FCU** -- head flits are admitted only if a legal output VC is
  free, and the switching decision is latched into the input buffer so
  body/tail flits follow without re-arbitration;
* the **OPC scheduler** -- per-VC allocation state plus downstream buffer
  status (the LocalLink ``CH_STATUS_N`` credit check); at most one flit
  crosses the physical link per cycle, multiplexed among the VCs.

Ejection ports are out-ports whose ``down`` entries are ``None``: the
local PE is an ideal sink absorbing one flit per cycle per ejection port.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.buffers import FlitBuffer
    from repro.noc.router import Router

__all__ = ["OutPort", "Move"]

#: Virtual channels per link: class 0, and class 1 for packets past the
#: ring dateline.  The array engine packs exactly this many per port.
VCS = 2

#: A granted flit movement: (source buffer, out port, out VC, clone-to-local)
Move = Tuple["FlitBuffer", "OutPort", int, bool]


class OutPort:
    """One output of a switch (network link or local ejection).

    Parameters
    ----------
    name:
        Human-readable label, e.g. ``"cw_out"`` or ``"eject"``.
    router:
        Owning router.
    is_dateline:
        True for the rim link that crosses the ring dateline; packets
        traversing it are upgraded to VC class 1 (deadlock avoidance).
    row:
        Index in the network's flat ``(node, creation)`` port order
        (``Network.iter_ports``), or -1 outside a built network.
    """

    __slots__ = ("name", "router", "row", "feeders", "down", "owner", "rr",
                 "is_dateline", "vc_policy", "flits_sent",
                 "dead")

    def __init__(self, name: str, router: "Router",
                 is_dateline: bool = False, vc_policy: str = "dateline",
                 row: int = -1):
        if vc_policy not in ("dateline", "any"):
            raise ValueError(f"unknown vc_policy {vc_policy!r}")
        self.name = name
        self.router = router
        self.row = row
        self.feeders: List["FlitBuffer"] = []
        self.down: List[Optional["FlitBuffer"]] = [None] * VCS
        self.owner: List[Optional["FlitBuffer"]] = [None] * VCS
        self.rr = 0
        self.is_dateline = is_dateline
        #: "dateline" -- the output VC equals the packet's dateline class
        #: (rim links, where VC1 is reserved for post-dateline traffic);
        #: "any" -- any free VC may be allocated (cross links and ejection
        #: ports, which take part in no cyclic channel dependency).
        self.vc_policy = vc_policy
        self.flits_sent = 0
        #: Fault seam: a dead port never grants a move (dead link, or
        #: any port of a dead router).  Set only by
        #: :class:`repro.faults.FaultState`; array engines mirror it by
        #: pointing the port's credit rows at their always-full anchor
        #: column, so the same flits stall in every backend.
        self.dead = False

    @property
    def is_ejection(self) -> bool:
        return all(d is None for d in self.down)

    def connect(self, down_bufs: List[Optional["FlitBuffer"]]) -> None:
        """Attach the downstream input buffers (one per VC)."""
        if len(down_bufs) != VCS:
            raise ValueError(
                f"port {self.name}: expected {VCS} downstream buffers, "
                f"got {len(down_bufs)}")
        self.down = list(down_bufs)

    # ------------------------------------------------------------------
    # per-cycle arbitration (phase A -- reads only, no mutation)
    # ------------------------------------------------------------------
    def arbitrate(self) -> Optional[Move]:
        """Pick at most one flit to send this cycle.

        Round-robin over feeders; a feeder is eligible when

        * streaming (owns an output VC here) and the downstream buffer for
          that VC has space, or
        * presenting a header flit that routes here, for which a legal
          output VC is free (or already owned by this very packet) and has
          downstream space.

        Returns the granted :data:`Move` or ``None``.  State mutation
        happens later in :func:`repro.noc.router.commit_move` so that all
        ports across the network arbitrate against a consistent
        start-of-cycle snapshot.
        """
        if self.dead:
            return None
        feeders = self.feeders
        n = len(feeders)
        rr = self.rr
        route_head = self.router.route
        for k in range(n):
            i = rr + k
            if i >= n:
                i -= n
            buf = feeders[i]
            if not buf.q:
                continue
            cur = buf.cur_out
            if cur is not None:
                # body/tail flit of a packet already switched through here
                if cur is not self:
                    continue
                vc = buf.cur_vc
                d = self.down[vc]
                if d is not None and len(d.q) >= d.capacity:
                    continue
                self.rr = i + 1 if i + 1 < n else 0
                return (buf, self, vc, buf.cur_deliver)
            # header flit awaiting routing + VC allocation
            pkt, fidx = buf.q[0]
            target, deliver = route_head(buf, pkt)
            if target is not self:
                continue
            if self.vc_policy == "dateline":
                candidates = (1 if self.is_dateline else pkt.vclass,)
            else:
                candidates = range(VCS)
            granted = -1
            for vc in candidates:
                own = self.owner[vc]
                if own is not None and own is not buf:
                    continue           # VC held by another in-flight packet
                d = self.down[vc]
                if d is not None and len(d.q) >= d.capacity:
                    continue           # no downstream credit
                granted = vc
                break
            if granted < 0:
                continue
            self.rr = i + 1 if i + 1 < n else 0
            return (buf, self, granted, deliver)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "eject" if self.is_ejection else "link"
        return f"<OutPort {self.name!r} {kind} feeders={len(self.feeders)}>"
