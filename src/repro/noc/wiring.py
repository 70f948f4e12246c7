"""A network's switch wiring, as one table of numpy columns.

Every router class describes its switch once, for all of its nodes
(:class:`~repro.noc.router.Router` ``LANES`` / ``QUEUES`` / ``PORTS``):
its buffers -- VC lane pairs, then local queues -- and per output port
its VC policy, the buffers it arbitrates among in round-robin order, and
its link: the neighbour across a step and the lane pair there it feeds.
:class:`Switch` compiles that description to buffer and port positions;
:class:`Wiring` lays it out for a whole network, a row per buffer and per
port in the flat ``(node, creation)`` order of ``Network.iter_buffers`` /
``iter_ports``.  Two consumers read the table:

* ``build_network``: each router builds its buffers, ports and feeders
  from its :class:`Switch` (``Router.__init__``), and
  :meth:`Wiring.connect` wires every link and flags every dateline from
  the columns;
* the array engine, whose ``_build_static`` lays its static arrays out
  from the columns without reading a buffer or port object.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.noc.buffers import LOCAL_QUEUE_DEPTH
from repro.noc.ports import VCS

__all__ = ["Switch", "Wiring"]


class Switch:
    """A router class's switch description, compiled to positions.

    Per buffer, in creation order: ``labels`` (a lane's carries its VC),
    ``roles`` and ``lanes`` (True: a VC lane of ``buffer_depth`` flits,
    False: a local queue).  ``groups`` maps each description attribute to
    its buffer (a position) or lane pair (a slice).  Per port, in
    creation order, ``ports`` holds ``(name, vc_policy, feeder
    positions, link)``, ``link`` being ``(step, downstream lane
    positions)`` or ``None`` (an ejection port).  ``jpos[k, i]`` is
    buffer ``k``'s place among port ``i``'s feeders (0 where it is none
    of them); ``fed[k]`` the ports buffer ``k`` feeds, in port order."""

    __slots__ = ("labels", "roles", "lanes", "groups", "ports", "jpos",
                 "fed")

    def __init__(self, lanes, queues, ports):
        self.labels, self.roles, self.lanes = [], [], []
        self.groups: Dict[str, Union[int, slice]] = {}
        at: Dict[str, List[int]] = {}
        for lane, entries in ((True, lanes), (False, queues)):
            for attr, label, role in entries:
                k = len(self.labels)
                names = ([f"{label}.vc{v}" for v in range(VCS)] if lane
                         else [label])
                self.groups[attr] = slice(k, k + VCS) if lane else k
                at[attr] = list(range(k, k + len(names)))
                self.labels += names
                self.roles += [role] * len(names)
                self.lanes += [lane] * len(names)
        self.ports: List[Tuple[str, str, List[int], Optional[tuple]]] = [
            (name, policy, [k for attr in feeders for k in at[attr]],
             None if link is None else (link[0], at[link[1]]))
            for name, policy, feeders, link in ports]
        self.jpos = np.zeros((len(self.labels), len(self.ports)), np.int64)
        self.fed: List[List[int]] = [[] for _ in self.labels]
        for i, (_, _, feeders, _) in enumerate(self.ports):
            self.jpos[feeders, i] = np.arange(len(feeders))
            for k in feeders:
                self.fed[k].append(i)


class Wiring:
    """The switch wiring of an ``n``-node network of ``cls`` routers.

    ``nbuf`` / ``nport`` buffers and ports a router; row ``node * nbuf +
    k`` is node ``node``'s ``k``-th buffer, likewise for ports.  Columns:
    ``cap`` (a row per buffer) capacities; per port ``down`` (``VCS``
    columns) the downstream lane rows (-1: an ejection port, or an edge
    port with no link), ``isdl`` the dateline flag and ``anyvc`` the
    "any" VC policy; ``fbuf[fptr[p]:fptr[p + 1]]`` port ``p``'s feeder
    rows in round-robin order."""

    __slots__ = ("switch", "nbuf", "nport", "cap", "down", "isdl", "anyvc",
                 "fptr", "fbuf")

    def __init__(self, cls, n: int, topo, buffer_depth: int):
        sw = self.switch = cls.switch()
        nb, npt = len(sw.labels), len(sw.ports)
        self.nbuf, self.nport = nb, npt
        self.cap = np.tile(np.where(sw.lanes, buffer_depth,
                                    LOCAL_QUEUE_DEPTH), n)
        down = np.full((n, npt, VCS), -1, np.int64)
        isdl = np.zeros((n, npt), bool)
        for i, (_, policy, _, link) in enumerate(sw.ports):
            if link is not None:
                step, lanes = link
                nbr, wraps = cls.neighbours(step, n, topo)
                nbr = nbr[:, None]
                down[:, i] = np.where(nbr >= 0, nbr * nb + lanes, -1)
                isdl[:, i] = wraps & (policy == "dateline")
        self.down = down.reshape(n * npt, VCS)
        self.isdl = isdl.ravel()
        self.anyvc = np.tile([p[1] == "any" for p in sw.ports], n)
        feeders = [p[2] for p in sw.ports]
        self.fptr = np.concatenate((
            [0], np.cumsum(np.tile([len(f) for f in feeders], n))))
        self.fbuf = (np.arange(n)[:, None] * nb
                     + np.concatenate(feeders)).ravel()

    def connect(self, net) -> None:
        """Wire every link port of ``net`` (whose routers this table
        describes) to its downstream lanes and flag its datelines."""
        bufs, ports = net.iter_buffers(), net.iter_ports()
        down = self.down
        for p in np.flatnonzero(down[:, 0] >= 0).tolist():
            ports[p].connect([bufs[d] for d in down[p].tolist()])
        for p in np.flatnonzero(self.isdl).tolist():
            ports[p].is_dateline = True
