"""Spatial decomposition maps: shard ranges, cut links, halo tables.

A :class:`ShardPlan` turns a topology's :meth:`partition` (contiguous
node arcs) into the flat-array geometry the sharded engine works in:
per-shard buffer/port column ranges (node-major layout makes contiguous
node ranges contiguous column ranges), the row owner table, and -- the
heart of the halo exchange -- each shard's *cut-out* table: every
``(port*2+vc)`` slot whose downstream buffer row lives in another shard,
with that row and its owning shard.  Each such row is fed by exactly one
out-port, which is what makes the owner rule deterministic: the sender
arbitrates the cut link (it owns the port and its round-robin state),
the receiver owns the row the flit lands in.

:func:`topology_cut_links` and :func:`live_cut_links` are the two
independent oracles the partition tests compare: the former counts
topology channels crossing shard boundaries, the latter walks the wired
object graph (and can exclude fault-killed ports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["ShardPlan", "make_plan", "topology_cut_links",
           "live_cut_links"]


@dataclass
class ShardPlan:
    """Static geometry of one spatial decomposition.

    ``cut_out[w]`` lists ``(pv, row, dest)`` for shard ``w``: flat
    ``port*2+vc`` slot, the remote buffer row it feeds, and the shard
    owning that row.  ``pub_rows`` is every cut-in row network-wide (the
    rows whose occupancy owners publish for ghost credits); ``dl_ports``
    counts dateline ports per shard (transport sizing).
    """

    shards: int
    n: int
    b2: int                                  # backend row count (B + 2)
    node_ranges: List[Tuple[int, int]]
    node_owner: List[int]
    buf_ranges: List[Tuple[int, int]]
    port_ranges: List[Tuple[int, int]]
    row_owner: List[int]
    cut_out: List[List[Tuple[int, int, int]]]
    pub_rows: List[int] = field(default_factory=list)
    dl_ports: List[int] = field(default_factory=list)


def make_plan(net, topo, backend, shards: int) -> "ShardPlan":
    """Build the shard plan for ``net`` as adopted by ``backend``.

    Requires the array engine's node-major layout; every contiguity
    assumption the halo exchange relies on is asserted here rather than
    discovered as a divergence later.
    """
    node_ranges = topo.partition(shards)
    n = topo.n
    if node_ranges[0][0] != 0 or node_ranges[-1][1] != n:
        raise AssertionError(f"partition does not cover [0, {n})")
    for (a, b), (c, _) in zip(node_ranges, node_ranges[1:]):
        if b != c:
            raise AssertionError("partition ranges are not contiguous")
    node_owner = [0] * n
    for w, (lo, hi) in enumerate(node_ranges):
        if hi <= lo:
            raise AssertionError(f"shard {w} owns no nodes")
        for node in range(lo, hi):
            node_owner[node] = w

    # node-major cumulative offsets -> contiguous column ranges
    boff = [0]
    poff = [0]
    for i, r in enumerate(net.routers):
        if r.node != i:
            raise AssertionError("routers are not in node order")
        boff.append(boff[-1] + len(r.in_bufs))
        poff.append(poff[-1] + len(r.out_ports))
    B = backend._B
    if boff[-1] != B or poff[-1] != backend._P:
        raise AssertionError("backend geometry does not match the network")
    buf_ranges = [(boff[lo], boff[hi]) for lo, hi in node_ranges]
    port_ranges = [(poff[lo], poff[hi]) for lo, hi in node_ranges]
    row_owner = [0] * B
    for w, (blo, bhi) in enumerate(buf_ranges):
        for b in range(blo, bhi):
            row_owner[b] = w

    down = backend._down
    cut_out: List[List[Tuple[int, int, int]]] = [[] for _ in range(shards)]
    feeder_of = {}
    for w, (plo, phi) in enumerate(port_ranges):
        blo, bhi = buf_ranges[w]
        for pv in range(2 * plo, 2 * phi):
            row = int(down[pv])
            if row >= B or blo <= row < bhi:
                continue                     # sink/anchor or internal
            prev = feeder_of.get(row)
            if prev is not None and prev // 2 != pv // 2:
                raise AssertionError(
                    f"cut row {row} fed by two ports ({prev//2}, {pv//2})")
            feeder_of[row] = pv
            cut_out[w].append((pv, row, row_owner[row]))
    pub_rows = sorted({row for cuts in cut_out for _, row, _ in cuts})
    isdl = backend._isdl_py
    dl_ports = [sum(1 for p in range(plo, phi) if isdl[p])
                for plo, phi in port_ranges]
    return ShardPlan(shards=shards, n=n, b2=backend._B2,
                     node_ranges=node_ranges, node_owner=node_owner,
                     buf_ranges=buf_ranges, port_ranges=port_ranges,
                     row_owner=row_owner, cut_out=cut_out,
                     pub_rows=pub_rows, dl_ports=dl_ports)


def topology_cut_links(topo, shards: int) -> List[Tuple[int, int]]:
    """``(src, dst)`` multiset of topology channels crossing shard
    boundaries (sorted).  The Quarc's doubled spokes are two physical
    channels per direction and appear twice -- compare as a multiset."""
    ranges = topo.partition(shards)
    owner = [0] * topo.n
    for w, (lo, hi) in enumerate(ranges):
        for node in range(lo, hi):
            owner[node] = w
    return sorted((ch.src, ch.dst) for ch in topo.channels()
                  if owner[ch.src] != owner[ch.dst])


def live_cut_links(net, owner: List[int],
                   include_dead: bool = True) -> List[Tuple[int, int]]:
    """``(src, dst)`` multiset of wired physical links crossing shard
    boundaries, read from the object graph.  Each out-port with a
    connected downstream buffer is one physical link (its VC lanes land
    on the same downstream router); ejection ports are skipped, and
    ``include_dead=False`` drops fault-killed ports."""
    links = []
    for r in net.routers:
        for port in r.out_ports:
            if port.dead and not include_dead:
                continue
            dn = next((d for d in port.down if d is not None), None)
            if dn is None:
                continue
            dst = dn.router.node
            if owner[r.node] != owner[dst]:
                links.append((r.node, dst))
    return sorted(links)
