"""Topology protocol shared by all network shapes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["Channel", "Topology"]


@dataclass(frozen=True)
class Channel:
    """One unidirectional physical link.

    ``kind`` distinguishes link families for load analysis and dateline
    placement: ``"cw"``/``"ccw"`` rim links, ``"cross"``/``"cross_r"``/
    ``"cross_l"`` spokes, mesh/torus dimension links, etc.
    """

    src: int
    dst: int
    kind: str


class Topology:
    """Abstract topology: nodes, channels and deterministic routes.

    Subclasses implement :meth:`channels` and :meth:`path`; everything
    else (diameter, average hops, networkx export, degree checks) derives
    from those.
    """

    name = "abstract"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"topology needs >= 2 nodes (got {n})")
        self.n = n

    # -- structure ------------------------------------------------------
    def channels(self) -> List[Channel]:
        """All unidirectional physical channels."""
        raise NotImplementedError

    def node_degree(self, node: int) -> int:
        """Out-degree of ``node`` counting network channels only."""
        return sum(1 for ch in self.channels() if ch.src == node)

    def to_networkx(self) -> "nx.DiGraph":
        """Directed graph of the physical channels (test oracle).  The
        one user of networkx, a test-only dependency: imported here."""
        import networkx as nx
        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        for ch in self.channels():
            g.add_edge(ch.src, ch.dst, kind=ch.kind)
        return g

    # -- spatial decomposition -----------------------------------------
    def partition(self, shards: int) -> List[Tuple[int, int]]:
        """Contiguous node ranges ``[(lo, hi), ...]``, one per shard.

        The sharded engine requires each shard to own a contiguous block
        of node ids (node-major buffer/port layout makes contiguous node
        ranges contiguous array column ranges).  The default splits the
        id space into ``shards`` arcs whose sizes differ by at most one;
        subclasses override with topology-aware cuts (quarc quadrants,
        mesh/torus row bands) that minimise cut links.
        """
        if not 1 <= shards <= self.n:
            raise ValueError(
                f"shards must be in [1, n={self.n}] (got {shards})")
        base, extra = divmod(self.n, shards)
        ranges = []
        lo = 0
        for k in range(shards):
            hi = lo + base + (1 if k < extra else 0)
            ranges.append((lo, hi))
            lo = hi
        return ranges

    # -- routing --------------------------------------------------------
    def path(self, src: int, dst: int) -> List[int]:
        """The deterministic route as a node sequence ``[src, ..., dst]``."""
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        return len(self.path(src, dst)) - 1

    def validate_pair(self, src: int, dst: int) -> None:
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise ValueError(
                f"node out of range: src={src} dst={dst} n={self.n}")
        if src == dst:
            raise ValueError("src == dst has no route")

    # -- statistics -----------------------------------------------------
    def diameter(self) -> int:
        return max(self.hops(s, d)
                   for s in range(self.n) for d in range(self.n) if s != d)

    def average_hops(self) -> float:
        total = sum(self.hops(s, d)
                    for s in range(self.n) for d in range(self.n) if s != d)
        return total / (self.n * (self.n - 1))

    def channel_loads(self) -> Dict[Tuple[int, int], float]:
        """Expected traversals of each channel per uniformly-random message.

        This is the quantity behind the paper's edge-(a)symmetry argument:
        Spidergon's single spoke carries twice the per-channel cross load
        of Quarc's doubled spokes.
        """
        loads: Dict[Tuple[int, int], float] = {
            (ch.src, ch.dst): 0.0 for ch in self.channels()}
        pairs = self.n * (self.n - 1)
        for s in range(self.n):
            for d in range(self.n):
                if s == d:
                    continue
                p = self.path(s, d)
                for a, b in zip(p, p[1:]):
                    loads[(a, b)] += 1.0 / pairs
        return loads

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n}>"
