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

import numpy as np

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

#: ``out_ports`` slots (``MeshRouter.PORTS`` order)
_E, _W, _S, _N, _EJECT = 0, 1, 2, 3, 4

#: link steps: (rows, columns) moved
_STEPS = {"e": (0, 1), "w": (0, -1), "s": (1, 0), "n": (-1, 0)}


class MeshRouter(Router):
    """5-port mesh router with XY routing."""

    __slots__ = ("topo", "row", "col",
                 "e_out", "w_out", "n_out", "s_out", "eject",
                 "bufs_e", "bufs_w", "bufs_n", "bufs_s", "local_q")

    wrap = False

    LANES = (("bufs_e", "e", D_E_IN), ("bufs_w", "w", D_W_IN),
             ("bufs_n", "n", D_N_IN), ("bufs_s", "s", D_S_IN))
    QUEUES = (("local_q", "loc", D_LOCAL),)
    #: XY legality: X-dimension outputs accept only same-dimension
    #: through traffic + local; Y outputs also accept X traffic turning.
    #: (``bufs_w`` holds what arrived from the west, travelling east.)
    PORTS = (
        ("e_out", "dateline", ("bufs_w", "local_q"), ("e", "bufs_w")),
        ("w_out", "dateline", ("bufs_e", "local_q"), ("w", "bufs_e")),
        ("s_out", "dateline", ("bufs_e", "bufs_w", "bufs_n", "local_q"),
         ("s", "bufs_n")),
        ("n_out", "dateline", ("bufs_e", "bufs_w", "bufs_s", "local_q"),
         ("n", "bufs_s")),
        ("eject", "any", ("bufs_e", "bufs_w", "bufs_n", "bufs_s"), None),
    )

    def __init__(self, node: int, topo: MeshTopology, buffer_depth: int = 4):
        super().__init__(node, topo.n, buffer_depth)
        self.topo = topo
        self.row, self.col = topo.coords(node)

    @classmethod
    def at(cls, node: int, topo, buffer_depth: int) -> "MeshRouter":
        return cls(node, topo, buffer_depth)

    @classmethod
    def neighbours(cls, step: str, n: int, topo):
        """A step in the grid; off its edge the mesh has no link, the
        torus wraps (a dateline in that dimension)."""
        dr, dc = _STEPS[step]
        r, c = np.divmod(np.arange(n), topo.cols)
        r, c = r + dr, c + dc
        wraps = (r < 0) | (r >= topo.rows) | (c < 0) | (c >= topo.cols)
        to = r % topo.rows * topo.cols + c % topo.cols
        if cls.wrap:
            return to, wraps
        return np.where(wraps, -1, to), np.zeros(n, bool)

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

    def route_table(self, role: int):
        """XY routing reads only (ingress role, destination), so every
        buffer is tabulable for every traffic class -- the software
        broadcast is plain serialised unicasts on the wire.
        :meth:`route_head` over all destinations at once, as a function
        of ``(role, dx, dy)``."""
        topo = self.topo
        dr, dc = np.divmod(np.arange(self.n), topo.cols)
        dx = self._step_columns(self.col, dc, topo.cols)
        dy = self._step_columns(self.row, dr, topo.rows)
        slot = np.where(dx > 0, _E, np.where(dx < 0, _W,
                                             np.where(dy > 0, _S, _N)))
        slot[self.node] = _EJECT
        if role in (D_E_IN, D_W_IN, D_LOCAL):
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

    def _x_steps(self, dc: int) -> int:
        return TorusTopology._ring_steps(self.col, dc, self.topo.cols)

    def _y_steps(self, dr: int) -> int:
        return TorusTopology._ring_steps(self.row, dr, self.topo.rows)

    def _step_columns(self, frm: int, to, size: int):
        fwd = (to - frm) % size     # ties break positive, as _ring_steps
        return np.where(fwd <= size - fwd, fwd, fwd - size)


class DORAdapter(Adapter):
    """One-port adapter for mesh/torus; software (serialised) broadcast."""

    __slots__ = ()

    def send_broadcast(self, size: int, now: int) -> CollectiveOp:
        """Naive software broadcast: N-1 unicasts through the one port."""
        return self.send_multicast(range(self.net.n), size, now)

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
            self._push("local_q", pkt)
        return op
