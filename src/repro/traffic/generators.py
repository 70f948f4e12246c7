"""Spatial destination patterns.

Destination choice is a pluggable :class:`DestinationPattern`: the
paper's uniform workload, adversarial patterns (transpose,
bit-complement), locality patterns (neighbour, directory) and fixed
permutations all map ``(source, rng) -> destination``.  The temporal
arrival models live in :mod:`repro.traffic.arrival`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

__all__ = [
    "DestinationPattern",
    "UniformPattern",
    "HotspotPattern",
    "TransposePattern",
    "BitComplementPattern",
    "NeighbourPattern",
    "PermutationPattern",
    "DirectoryPattern",
]


class DestinationPattern:
    """Maps (source, rng) to a destination node."""

    name = "abstract"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("patterns need at least 2 nodes")
        self.n = n

    def pick(self, src: int, rng: random.Random) -> int:
        raise NotImplementedError


class UniformPattern(DestinationPattern):
    """Uniformly random destination != source (the paper's workload)."""

    name = "uniform"

    def pick(self, src: int, rng: random.Random) -> int:
        d = rng.randrange(self.n - 1)
        return d if d < src else d + 1


class HotspotPattern(DestinationPattern):
    """With probability ``p`` target the hotspot node, else uniform."""

    name = "hotspot"

    def __init__(self, n: int, hotspot: int = 0, p: float = 0.2):
        super().__init__(n)
        if not 0 <= hotspot < n:
            raise ValueError(f"hotspot node {hotspot} out of range")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"hotspot probability must be in [0,1] (got {p})")
        self.hotspot = hotspot
        self.p = p
        self._uniform = UniformPattern(n)

    def pick(self, src: int, rng: random.Random) -> int:
        if src != self.hotspot and rng.random() < self.p:
            return self.hotspot
        return self._uniform.pick(src, rng)


class TransposePattern(DestinationPattern):
    """Bit-transpose: dst = rotate(src) -- a classic adversarial pattern.

    Requires a power-of-two node count; sources whose transpose equals
    themselves fall back to uniform.
    """

    name = "transpose"

    def __init__(self, n: int):
        super().__init__(n)
        if n & (n - 1):
            raise ValueError(f"transpose needs a power-of-two size (got {n})")
        self.bits = n.bit_length() - 1
        self._uniform = UniformPattern(n)

    def pick(self, src: int, rng: random.Random) -> int:
        half = self.bits // 2
        lo = src & ((1 << half) - 1)
        hi = src >> half
        dst = (lo << (self.bits - half)) | hi
        if dst == src:
            return self._uniform.pick(src, rng)
        return dst


class BitComplementPattern(DestinationPattern):
    """dst = ~src: every message crosses the network centre."""

    name = "bit-complement"

    def __init__(self, n: int):
        super().__init__(n)
        if n & (n - 1):
            raise ValueError(
                f"bit-complement needs a power-of-two size (got {n})")
        self.mask = n - 1

    def pick(self, src: int, rng: random.Random) -> int:
        return src ^ self.mask


class NeighbourPattern(DestinationPattern):
    """dst = src + offset (mod N): pure nearest-neighbour rim traffic.

    ``offset`` defaults to +1 (downstream ring direction); -1 selects
    the upstream direction -- the two halves of a ring all-reduce
    (reduce-scatter one way, all-gather the other) map onto the two
    signs.
    """

    name = "neighbour"

    def __init__(self, n: int, offset: int = 1):
        super().__init__(n)
        if offset % n == 0:
            raise ValueError(
                f"neighbour offset {offset} is a multiple of N={n}; "
                f"every node would target itself")
        self.offset = offset

    def pick(self, src: int, rng: random.Random) -> int:
        return (src + self.offset) % self.n


class PermutationPattern(DestinationPattern):
    """A fixed random derangement (every node targets one distinct node)."""

    name = "permutation"

    def __init__(self, n: int, seed: int = 0,
                 mapping: Optional[Sequence[int]] = None):
        super().__init__(n)
        if mapping is not None:
            if sorted(mapping) != list(range(n)):
                raise ValueError("mapping must be a permutation of 0..N-1")
            if any(i == m for i, m in enumerate(mapping)):
                raise ValueError("mapping must have no fixed points")
            self.mapping = list(mapping)
            return
        rng = random.Random(seed)
        while True:
            perm = list(range(n))
            rng.shuffle(perm)
            if all(i != p for i, p in enumerate(perm)):
                self.mapping = perm
                return

    def pick(self, src: int, rng: random.Random) -> int:
        return self.mapping[src]


class DirectoryPattern(DestinationPattern):
    """Directory-home locality on NUMA quadrants of the ring address map.

    The node space is split into ``quadrants`` contiguous arcs (the
    natural quadrant structure of the Quarc/Spidergon rim).  Each access
    targets a directory home in the source's own quadrant with
    probability ``local``, else a home in a remote quadrant, uniform
    within the chosen region and never the source itself.  ``local``
    models page-placement affinity: 1.0 is perfect NUMA locality, 0.0
    all-remote, and intermediate values interpolate toward uniform
    traffic.

    RNG discipline: one draw for the local/remote decision plus one for
    the home choice (single-node regions consume the region draw too),
    so the per-arrival draw count is fixed and backend-independent.
    """

    name = "directory"

    def __init__(self, n: int, quadrants: int = 4, local: float = 0.5):
        super().__init__(n)
        if not 1 <= quadrants <= n:
            raise ValueError(
                f"directory needs 1 <= quadrants <= N={n} "
                f"(got {quadrants})")
        if not 0.0 <= local <= 1.0:
            raise ValueError(
                f"directory local fraction must be in [0,1] (got {local})")
        self.quadrants = quadrants
        self.local = local
        # contiguous arcs; the first n % quadrants arcs get the extra node
        base, rem = divmod(n, quadrants)
        self._bounds: List[int] = []     # arc start offsets, + final n
        start = 0
        for q in range(quadrants):
            self._bounds.append(start)
            start += base + (1 if q < rem else 0)
        self._bounds.append(n)
        self._quad_of = [0] * n
        for q in range(quadrants):
            for node in range(self._bounds[q], self._bounds[q + 1]):
                self._quad_of[node] = q

    def pick(self, src: int, rng: random.Random) -> int:
        q = self._quad_of[src]
        lo, hi = self._bounds[q], self._bounds[q + 1]
        go_local = rng.random() < self.local
        if go_local and hi - lo > 1:
            d = lo + rng.randrange(hi - lo - 1)
            return d if d < src else d + 1
        # remote quadrant (or a single-node home arc, where "local"
        # would mean self-send): uniform over the nodes outside the arc
        span = self.n - (hi - lo)
        if span == 0:                     # quadrants == 1: plain uniform
            d = rng.randrange(self.n - 1)
            return d if d < src else d + 1
        d = rng.randrange(span)
        return d if d < lo else d + (hi - lo)
