"""Mesh/torus dimension-order routers -- the paper's future-work baselines.

"Our next objective is to compare the performance of the Quarc against
other widely used NoC architectures such as mesh and torus." (Sec. 4)

Both routers use XY dimension-order routing with a one-port adapter (a
typical mesh NoC interface).  The mesh needs no VC discipline (XY is
acyclic); the torus wrap links are datelines like the Spidergon rims.
Broadcast has no hardware support in either: the adapter falls back to
N-1 source-serialised unicasts, the naive software broadcast -- which is
exactly the contrast the Quarc's true broadcast is designed to win.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple

from repro.noc.network import Adapter
from repro.noc.packet import BROADCAST, CollectiveOp, Packet
from repro.noc.router import Router
from repro.topologies.mesh import MeshTopology
from repro.topologies.torus import TorusTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.buffers import FlitBuffer
    from repro.noc.ports import OutPort

__all__ = ["MeshRouter", "TorusRouter", "DORAdapter"]

# ingress roles
D_E_IN, D_W_IN, D_N_IN, D_S_IN, D_LOCAL = 0, 1, 2, 3, 4

#: ``out_ports`` slots (creation order in ``MeshRouter.__init__``)
_E, _W, _S, _N, _EJECT = 0, 1, 2, 3, 4

LOCAL_QUEUE_DEPTH = 1 << 20


class MeshRouter(Router):
    """5-port mesh router with XY routing."""

    __slots__ = ("topo", "row", "col",
                 "e_out", "w_out", "n_out", "s_out", "eject",
                 "bufs_e", "bufs_w", "bufs_n", "bufs_s", "local_q")

    wrap = False

    def __init__(self, node: int, topo: MeshTopology, buffer_depth: int = 4):
        super().__init__(node, topo.n)
        self.topo = topo
        self.row, self.col = topo.coords(node)

        mk = self.new_buffer
        self.bufs_e = [mk(buffer_depth, f"e.vc{v}", D_E_IN) for v in (0, 1)]
        self.bufs_w = [mk(buffer_depth, f"w.vc{v}", D_W_IN) for v in (0, 1)]
        self.bufs_n = [mk(buffer_depth, f"n.vc{v}", D_N_IN) for v in (0, 1)]
        self.bufs_s = [mk(buffer_depth, f"s.vc{v}", D_S_IN) for v in (0, 1)]
        self.local_q = mk(LOCAL_QUEUE_DEPTH, "loc", D_LOCAL)

        dl_e = self.wrap and self.col == topo.cols - 1
        dl_w = self.wrap and self.col == 0
        dl_s = self.wrap and self.row == topo.rows - 1
        dl_n = self.wrap and self.row == 0
        self.e_out = self.new_port("e_out", is_dateline=dl_e)
        self.w_out = self.new_port("w_out", is_dateline=dl_w)
        self.s_out = self.new_port("s_out", is_dateline=dl_s)
        self.n_out = self.new_port("n_out", is_dateline=dl_n)
        self.eject = self.new_port("eject", vc_policy="any")

        # XY legality: X-dimension outputs accept only same-dimension
        # through traffic + local; Y outputs also accept X traffic turning.
        for b in self.bufs_w:          # arrived from west, travelling east
            self.e_out.add_feeder(b)
        for b in self.bufs_e:
            self.w_out.add_feeder(b)
        for bufs in (self.bufs_e, self.bufs_w, self.bufs_n):
            for b in bufs:
                self.s_out.add_feeder(b)
        for bufs in (self.bufs_e, self.bufs_w, self.bufs_s):
            for b in bufs:
                self.n_out.add_feeder(b)
        for bufs in (self.bufs_e, self.bufs_w, self.bufs_n, self.bufs_s):
            for b in bufs:
                self.eject.add_feeder(b)
        for port in (self.e_out, self.w_out, self.s_out, self.n_out):
            port.add_feeder(self.local_q)

    def connect(self, routers) -> None:
        topo = self.topo
        r, c = self.row, self.col
        wrap = self.wrap

        def hook(port, rr, cc, bufs_name):
            if not wrap and not (0 <= rr < topo.rows and 0 <= cc < topo.cols):
                return
            nbr = routers[topo.node_at(rr % topo.rows, cc % topo.cols)]
            port.connect(list(getattr(nbr, bufs_name)))

        hook(self.e_out, r, c + 1, "bufs_w")
        hook(self.w_out, r, c - 1, "bufs_e")
        hook(self.s_out, r + 1, c, "bufs_n")
        hook(self.n_out, r - 1, c, "bufs_s")

    # -- routing ---------------------------------------------------------
    def _x_steps(self, dc: int) -> int:
        """Signed column displacement along the routing direction."""
        return dc - self.col

    def _y_steps(self, dr: int) -> int:
        return dr - self.row

    def route_head(self, buf: "FlitBuffer",
                   pkt: "Packet") -> Tuple["OutPort", bool]:
        if pkt.dst == self.node:
            return self.eject, False
        dr, dc = self.topo.coords(pkt.dst)
        dx = self._x_steps(dc)
        if dx:
            return (self.e_out if dx > 0 else self.w_out), False
        # dimension turn: the Y leg is a fresh ring, restart at VC class 0
        # (idempotent -- route_head may run several times while blocked)
        if buf.role in (D_E_IN, D_W_IN, D_LOCAL):
            pkt.vclass = 0
        dy = self._y_steps(dr)
        return (self.s_out if dy > 0 else self.n_out), False

    def _step_columns(self, frm: int, to, size: int):
        """:meth:`_x_steps` / :meth:`_y_steps` over a numpy column of
        destination coordinates ``to``."""
        return to - frm

    def route_table(self, buf: "FlitBuffer"):
        """XY routing reads only (ingress role, destination), so every
        buffer is tabulable for every traffic class -- the software
        broadcast is plain serialised unicasts on the wire.
        :meth:`route_head` over all destinations at once, as a function
        of ``(role, dx, dy)``."""
        import numpy as np      # the array engine's dependency, not ours
        topo = self.topo
        dr, dc = np.divmod(np.arange(self.n), topo.cols)
        dx = self._step_columns(self.col, dc, topo.cols)
        dy = self._step_columns(self.row, dr, topo.rows)
        slot = np.where(dx > 0, _E, np.where(dx < 0, _W,
                                             np.where(dy > 0, _S, _N)))
        slot[self.node] = _EJECT
        if buf.role in (D_E_IN, D_W_IN, D_LOCAL):
            vreset = dx == 0            # the dimension turn
            vreset[self.node] = False
        else:
            vreset = np.zeros(self.n, bool)
        return slot, np.zeros(self.n, bool), vreset


class TorusRouter(MeshRouter):
    """Mesh router + wraparound links, shortest-direction per dimension."""

    __slots__ = ()

    wrap = True
    #: a node offset q * cols + r moves the column by r (mod cols) and
    #: the row by q, plus a carry only if r > 0 -- when dx decides alone
    relative_tables = True

    def __init__(self, node: int, topo: TorusTopology,
                 buffer_depth: int = 4):
        super().__init__(node, topo, buffer_depth)  # type: ignore[arg-type]

    def _x_steps(self, dc: int) -> int:
        return TorusTopology._ring_steps(self.col, dc, self.topo.cols)

    def _y_steps(self, dr: int) -> int:
        return TorusTopology._ring_steps(self.row, dr, self.topo.rows)

    def _step_columns(self, frm: int, to, size: int):
        import numpy as np
        fwd = (to - frm) % size     # ties break positive, as _ring_steps
        return np.where(fwd <= size - fwd, fwd, fwd - size)


class DORAdapter(Adapter):
    """One-port adapter for mesh/torus; software (serialised) broadcast."""

    __slots__ = ()

    def send_broadcast(self, size: int, now: int) -> CollectiveOp:
        """Naive software broadcast: N-1 unicasts through the one port."""
        return self.send_multicast(range(self.router.n), size, now)

    def send_multicast(self, targets: Iterable[int], size: int,
                       now: int) -> CollectiveOp:
        tgts = self._targets(targets)
        op = self._open(BROADCAST, now, len(tgts))
        fs = self.fault_state
        for dst in tgts:
            if fs is not None and fs.src_cannot_reach(self.node, dst):
                fs.source_drop_branch(op)
                continue
            pkt = Packet(self.node, dst, size, BROADCAST, created=now, op=op)
            self.router.local_q.push_packet(pkt)
        return op
