"""The Spidergon switch -- the paper's baseline (Fig. 3a).

A minimal deterministic-routing Spidergon switch: three network input
ports (CW rim, CCW rim, single cross), **one** local injection port and
**one** local ejection port.  Compared with the Quarc switch this means:

* all locally generated traffic serialises through one injection channel,
  so a message can "block on an occupied injection channel even when
  [its] required network channels are free" (Sec. 2.1);
* all arriving traffic serialises through one ejection channel, which the
  broadcast-by-unicast relay traffic also consumes;
* the cross input needs genuine routing logic (continue CW or CCW toward
  the destination), and broadcast needs header-rewrite/replication logic
  -- both of which cost area in :mod:`repro.hw`.

The replication queue models the switch logic that "create[s] the
required packets on receipt of a broadcast-by-unicast packet"
(Sec. 2.2): regenerated relay packets compete with the PE's own queue for
the rim output ports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.noc.router import Router

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.buffers import FlitBuffer
    from repro.noc.packet import Packet
    from repro.noc.ports import OutPort

__all__ = ["SpidergonRouter",
           "S_CW_IN", "S_CCW_IN", "S_X_IN", "S_LOCAL", "S_REPL"]

# ingress roles (FlitBuffer.role)
S_CW_IN, S_CCW_IN, S_X_IN, S_LOCAL, S_REPL = 0, 1, 2, 3, 4

#: ``out_ports`` slots (creation order in ``SpidergonRouter.__init__``)
_CW, _CCW, _X, _EJECT = 0, 1, 2, 3

LOCAL_QUEUE_DEPTH = 1 << 20


class SpidergonRouter(Router):
    """One-port Spidergon switch for one node."""

    __slots__ = ("cw_out", "ccw_out", "x_out", "eject",
                 "bufs_cw", "bufs_ccw", "bufs_x", "local_q", "repl_q")

    relative_tables = True

    def __init__(self, node: int, n: int, buffer_depth: int = 4):
        super().__init__(node, n)
        if n % 2:
            raise ValueError(f"Spidergon needs an even node count (got {n})")

        mk = self.new_buffer
        self.bufs_cw = [mk(buffer_depth, f"cw.vc{v}", S_CW_IN)
                        for v in (0, 1)]
        self.bufs_ccw = [mk(buffer_depth, f"ccw.vc{v}", S_CCW_IN)
                         for v in (0, 1)]
        self.bufs_x = [mk(buffer_depth, f"x.vc{v}", S_X_IN) for v in (0, 1)]
        self.local_q = mk(LOCAL_QUEUE_DEPTH, "loc", S_LOCAL)
        self.repl_q = mk(LOCAL_QUEUE_DEPTH, "repl", S_REPL)

        self.cw_out = self.new_port("cw_out", is_dateline=(node == n - 1))
        self.ccw_out = self.new_port("ccw_out", is_dateline=(node == 0))
        self.x_out = self.new_port("x_out", vc_policy="any")
        self.eject = self.new_port("eject", vc_policy="any")

        # replication before local: the switch's own broadcast logic gets
        # priority over fresh PE traffic at the rim outputs (round-robin
        # still rotates, so neither starves)
        for b in self.bufs_cw:
            self.cw_out.add_feeder(b)
            self.eject.add_feeder(b)
        for b in self.bufs_x:
            self.cw_out.add_feeder(b)
            self.ccw_out.add_feeder(b)
            self.eject.add_feeder(b)
        self.cw_out.add_feeder(self.repl_q)
        self.cw_out.add_feeder(self.local_q)
        for b in self.bufs_ccw:
            self.ccw_out.add_feeder(b)
            self.eject.add_feeder(b)
        self.ccw_out.add_feeder(self.repl_q)
        self.ccw_out.add_feeder(self.local_q)
        self.x_out.add_feeder(self.local_q)

    # ------------------------------------------------------------------
    def connect(self, routers) -> None:
        """Wire link outputs to neighbour IPC lanes."""
        n = self.n
        nxt: "SpidergonRouter" = routers[(self.node + 1) % n]
        prv: "SpidergonRouter" = routers[(self.node - 1) % n]
        anti: "SpidergonRouter" = routers[(self.node + n // 2) % n]
        self.cw_out.connect(list(nxt.bufs_cw))
        self.ccw_out.connect(list(prv.bufs_ccw))
        self.x_out.connect(list(anti.bufs_x))

    # ------------------------------------------------------------------
    def route_head(self, buf: "FlitBuffer",
                   pkt: "Packet") -> Tuple["OutPort", bool]:
        """Across-first deterministic routing (Sec. 2.1).

        Unlike the Quarc this *is* a routing computation: the local port
        compares rim distance against N/4 to choose rim vs spoke, and the
        cross input picks the shorter rim direction -- the "more complex
        logic" the cost analysis charges the Spidergon switch for.
        """
        me = self.node
        n = self.n
        role = buf.role
        if role == S_LOCAL:
            k = (pkt.dst - me) % n
            if 4 * min(k, n - k) > n:
                return self.x_out, False
            return (self.cw_out if k <= n - k else self.ccw_out), False
        if role == S_REPL:
            k = (pkt.dst - me) % n
            return (self.cw_out if k <= n - k else self.ccw_out), False
        if pkt.dst == me:
            return self.eject, False
        if role == S_CW_IN:
            return self.cw_out, False
        if role == S_CCW_IN:
            return self.ccw_out, False
        # cross ingress: finish along the shorter rim direction
        k = (pkt.dst - me) % n
        return (self.cw_out if k <= n - k else self.ccw_out), False

    def route_table(self, buf: "FlitBuffer"):
        """Across-first routing reads only (ingress role, destination);
        relay segments route exactly like unicasts, so the table holds
        for every traffic class.  :meth:`route_head` over all
        destinations at once, as a function of ``(role, k)``."""
        import numpy as np      # the array engine's dependency, not ours
        me = self.node
        n = self.n
        role = buf.role
        if role == S_CW_IN:
            slot = np.full(n, _CW, np.int64)
        elif role == S_CCW_IN:
            slot = np.full(n, _CCW, np.int64)
        else:
            k = (np.arange(n) - me) % n
            slot = np.where(2 * k <= n, _CW, _CCW)
            if role == S_LOCAL:
                slot[4 * np.minimum(k, n - k) > n] = _X
        if role <= S_X_IN:
            slot[me] = _EJECT
        never = np.zeros(n, bool)
        return slot, never, never
