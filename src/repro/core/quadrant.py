"""The quadrant calculator -- the Quarc NoC's single routing decision.

"For the Quarc, the surprising observation is that there is no routing
required by the switch [...] The route is completely determined by the
port in which the packet is injected by the source." (Sec. 2.5.1)

This module is the software model of that hardware block (Fig. 5): given
the local address and a destination address it returns the quadrant, i.e.
which of the transceiver's four buffers (and hence which ingress port of
the all-port router) the packet must use.  It is deliberately independent
of :class:`~repro.topologies.quarc.QuarcTopology` -- the hardware unit
only knows N, its own address and simple modular arithmetic -- and the
test-suite cross-checks the two implementations against each other.
"""

from __future__ import annotations

from typing import Tuple

from repro.topologies.quarc import LEFT, RIGHT, XLEFT, XRIGHT

__all__ = ["QuadrantCalculator", "base_route_hops"]


def base_route_hops(k: int, n: int) -> int:
    """Hops along the base route to the node ``k`` places clockwise
    (``0 <= k < n``): the offset the quadrant comparators cut, read as a
    distance -- rim hops in the right/left quadrants, one spoke hop plus
    the rim walk back from the antipode in the cross quadrants."""
    q = n // 4
    if k <= q:
        return k
    if k <= 2 * q:
        return 1 + (2 * q - k)
    if k < 3 * q:
        return 1 + (k - 2 * q)
    return n - k


class QuadrantCalculator:
    """Hardware-model quadrant computation for one node.

    Parameters
    ----------
    node:
        Local address (the transceiver compares it with the packet
        header's destination address).
    n:
        Network size; must be divisible by 4 so the quadrants tile.
    """

    def __init__(self, node: int, n: int):
        if n % 4:
            raise ValueError(f"Quarc quadrants need N % 4 == 0 (got {n})")
        if not 0 <= node < n:
            raise ValueError(f"node {node} out of range for N={n}")
        self.node = node
        self.n = n
        self.q = n // 4

    def quadrant(self, dst: int) -> str:
        """Quadrant of ``dst`` relative to this node.

        The hardware computes the clockwise offset ``k = (dst - node) mod
        N`` (an adder) and compares it against q, 2q and 3q (three
        comparators) -- "a very small additional action" (Sec. 2.5.1).
        """
        if dst == self.node:
            raise ValueError("local address has no quadrant")
        if not 0 <= dst < self.n:
            raise ValueError(f"destination {dst} out of range for N={self.n}")
        k = (dst - self.node) % self.n
        q = self.q
        if k <= q:
            return RIGHT
        if k <= 2 * q:
            return XLEFT
        if k < 3 * q:
            return XRIGHT
        return LEFT

    #: the slots :meth:`quadrant_column` counts in
    COLUMN_ORDER = (RIGHT, XLEFT, XRIGHT, LEFT)

    def quadrant_column(self):
        """:meth:`quadrant` of every destination, as ``COLUMN_ORDER``
        indices, -1 at the local address: by clockwise offset the
        comparators cut runs of 1, q, q, q - 1 and q, rotated to ``node``."""
        import numpy as np      # the array engine's dependency, not ours
        q = self.q
        col = np.repeat((-1, 0, 1, 2, 3), (1, q, q, q - 1, q))
        return np.concatenate((col[-self.node:], col[:-self.node]))

    def hop_distance(self, dst: int) -> int:
        """Hops along the base route to ``dst`` (for multicast bitstrings)."""
        return base_route_hops((dst - self.node) % self.n, self.n)

    def classify(self, dst: int) -> Tuple[str, int]:
        """(quadrant, hop distance) in one call."""
        return self.quadrant(dst), self.hop_distance(dst)
