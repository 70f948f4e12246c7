"""The Quarc all-port switch (Fig. 3b / Fig. 4).

Port inventory per node (N nodes, antipode ``i + N/2``):

========== =============================== ============================
ingress     carries                         legal outputs
========== =============================== ============================
CW_IN       rim traffic travelling CW       eject, CW_OUT
CCW_IN      rim traffic travelling CCW      eject, CCW_OUT
XR_IN       cross traffic turning CW        eject, CW_OUT
XL_IN       cross traffic turning CCW       eject, CCW_OUT
LOC_R       local right-quadrant queue      CW_OUT
LOC_L       local left-quadrant queue       CCW_OUT
LOC_XR      local cross-right queue         XR_OUT
LOC_XL      local cross-left queue          XL_OUT
========== =============================== ============================

Every ingress has at most two legal outputs, hence "the routing logic
inside the Quarc switch is very minimal" (Sec. 2.3): the route function
below is one address comparison plus the broadcast flag.  Each rim output
port arbitrates among exactly three ingress sources -- matching the
paper's OPC master FSM with its three grant states -- and ejection is
per-ingress (all-port), so arriving traffic never queues behind other
ejections.

Broadcast (Sec. 2.5.2): a flit tagged broadcast whose destination is not
the local address is **cloned** -- forwarded on the rim and simultaneously
copied to the local PE ("setting a flag on the ingress multiplexer which
causes it to clone the flits").  Cloning applies to CW, CCW and XL
ingress; the XR stream transits the antipodal switch without a local copy
(its branch starts absorbing one hop later), which is what makes the four
branches' coverage exactly the N-1 other nodes with no duplicates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.core.quadrant import base_route_hops
from repro.noc.packet import BROADCAST, MULTICAST
from repro.noc.router import Router

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.buffers import FlitBuffer
    from repro.noc.packet import Packet
    from repro.noc.ports import OutPort

__all__ = ["QuarcRouter",
           "CW_IN", "CCW_IN", "XR_IN", "XL_IN",
           "LOC_R", "LOC_L", "LOC_XR", "LOC_XL"]

# ingress roles (FlitBuffer.role)
CW_IN, CCW_IN, XR_IN, XL_IN = 0, 1, 2, 3
LOC_R, LOC_L, LOC_XR, LOC_XL = 4, 5, 6, 7

#: ``out_ports`` slots (creation order in ``QuarcRouter.__init__``: the
#: four links cw/ccw/xr/xl, then the four ejections in ingress-role
#: order).  The whole unicast routing function is these two lines: the
#: link each ingress role forwards on, and ejection ``_EJECT_SLOT +
#: role`` when the address matches.
_FORWARD_SLOT = (0, 1, 0, 1, 0, 1, 2, 3)
_EJECT_SLOT = 4

#: Local queues are PE-side memory, modelled deep; switch lanes are small.
LOCAL_QUEUE_DEPTH = 1 << 20


class QuarcRouter(Router):
    """All-port Quarc switch for one node."""

    __slots__ = ("cw_out", "ccw_out", "xr_out", "xl_out",
                 "ej_cw", "ej_ccw", "ej_xr", "ej_xl",
                 "bufs_cw", "bufs_ccw", "bufs_xr", "bufs_xl",
                 "loc_r", "loc_l", "loc_xr", "loc_xl")

    relative_tables = True

    def __init__(self, node: int, n: int, buffer_depth: int = 4):
        super().__init__(node, n)
        mk = self.new_buffer
        self.bufs_cw = [mk(buffer_depth, f"cw.vc{v}", CW_IN) for v in (0, 1)]
        self.bufs_ccw = [mk(buffer_depth, f"ccw.vc{v}", CCW_IN)
                         for v in (0, 1)]
        self.bufs_xr = [mk(buffer_depth, f"xr.vc{v}", XR_IN) for v in (0, 1)]
        self.bufs_xl = [mk(buffer_depth, f"xl.vc{v}", XL_IN) for v in (0, 1)]
        self.loc_r = mk(LOCAL_QUEUE_DEPTH, "loc.r", LOC_R)
        self.loc_l = mk(LOCAL_QUEUE_DEPTH, "loc.l", LOC_L)
        self.loc_xr = mk(LOCAL_QUEUE_DEPTH, "loc.xr", LOC_XR)
        self.loc_xl = mk(LOCAL_QUEUE_DEPTH, "loc.xl", LOC_XL)

        dateline_cw = node == n - 1      # CW link n-1 -> 0
        dateline_ccw = node == 0         # CCW link 0 -> n-1
        self.cw_out = self.new_port("cw_out", is_dateline=dateline_cw)
        self.ccw_out = self.new_port("ccw_out", is_dateline=dateline_ccw)
        self.xr_out = self.new_port("xr_out", vc_policy="any")
        self.xl_out = self.new_port("xl_out", vc_policy="any")
        self.ej_cw = self.new_port("ej_cw", vc_policy="any")
        self.ej_ccw = self.new_port("ej_ccw", vc_policy="any")
        self.ej_xr = self.new_port("ej_xr", vc_policy="any")
        self.ej_xl = self.new_port("ej_xl", vc_policy="any")

        for b in self.bufs_cw:
            self.cw_out.add_feeder(b)
            self.ej_cw.add_feeder(b)
        for b in self.bufs_xr:
            self.cw_out.add_feeder(b)
            self.ej_xr.add_feeder(b)
        self.cw_out.add_feeder(self.loc_r)

        for b in self.bufs_ccw:
            self.ccw_out.add_feeder(b)
            self.ej_ccw.add_feeder(b)
        for b in self.bufs_xl:
            self.ccw_out.add_feeder(b)
            self.ej_xl.add_feeder(b)
        self.ccw_out.add_feeder(self.loc_l)

        self.xr_out.add_feeder(self.loc_xr)
        self.xl_out.add_feeder(self.loc_xl)

    # ------------------------------------------------------------------
    def connect(self, routers) -> None:
        """Wire this switch's link output ports to neighbour IPC lanes."""
        n = self.n
        nxt: "QuarcRouter" = routers[(self.node + 1) % n]
        prv: "QuarcRouter" = routers[(self.node - 1) % n]
        anti: "QuarcRouter" = routers[(self.node + n // 2) % n]
        self.cw_out.connect(list(nxt.bufs_cw))
        self.ccw_out.connect(list(prv.bufs_ccw))
        self.xr_out.connect(list(anti.bufs_xr))
        self.xl_out.connect(list(anti.bufs_xl))

    # ------------------------------------------------------------------
    def _absorb_here(self, pkt: "Packet") -> bool:
        """Should a passing collective flit be cloned to the local PE?"""
        t = pkt.traffic
        if t == BROADCAST:
            return True
        if t == MULTICAST:
            # this node's bit: its hops from the source along the base
            # route (the multicast bitstring position, Sec. 2.5.3)
            h = base_route_hops((self.node - pkt.src) % self.n, self.n)
            return bool((pkt.bitstring >> h) & 1)
        return False

    def route_head(self, buf: "FlitBuffer",
                   pkt: "Packet") -> Tuple["OutPort", bool]:
        """The (absence of) Quarc routing logic.

        Local queues forward to their fixed link; network ingress either
        ejects (destination address matches) or forwards straight on,
        cloning collective flits to the PE on the way past.
        """
        role = buf.role
        if role >= LOC_R:                       # local ingress: fixed output
            if role == LOC_R:
                return self.cw_out, False
            if role == LOC_L:
                return self.ccw_out, False
            if role == LOC_XR:
                return self.xr_out, False
            return self.xl_out, False
        me = self.node
        if role == CW_IN:
            if pkt.dst == me:
                return self.ej_cw, False
            return self.cw_out, self._absorb_here(pkt)
        if role == CCW_IN:
            if pkt.dst == me:
                return self.ej_ccw, False
            return self.ccw_out, self._absorb_here(pkt)
        if role == XR_IN:
            if pkt.dst == me:
                return self.ej_xr, False
            # XR streams transit the antipode without a local copy: the
            # cross-right branch starts absorbing one rim hop later.
            return self.cw_out, (pkt.traffic == MULTICAST
                                 and self._absorb_here(pkt))
        # XL_IN
        if pkt.dst == me:
            return self.ej_xl, False
        return self.ccw_out, self._absorb_here(pkt)

    def route_table(self, buf: "FlitBuffer"):
        # Only the fixed-output local queues route every traffic class
        # by destination alone: at a network ingress a multicast's clone
        # decision reads its bitstring.
        if buf.role >= LOC_R:
            return self.unicast_route_table(buf)
        return None

    def unicast_route_table(self, buf: "FlitBuffer"):
        """Eject-or-forward is a pure function of the destination for
        every ingress and class; a collective adds the clone, which for
        a broadcast is a constant per ingress role -- the fourth column,
        ``bclone`` (a relay segment routes like a unicast).  Multicast
        stays with :meth:`route_head`: its bitstring needs up to N/4 + 1
        bits (257 at N = 1024), which no table column holds."""
        import numpy as np      # the array engine's dependency, not ours
        role = buf.role
        slot = np.full(self.n, _FORWARD_SLOT[role], np.int64)
        if role < LOC_R:
            slot[self.node] = _EJECT_SLOT + role
        never = np.zeros(self.n, bool)
        if role in (CW_IN, CCW_IN, XL_IN):
            return slot, never, never, slot != _EJECT_SLOT + role  # not here
        return slot, never, never
