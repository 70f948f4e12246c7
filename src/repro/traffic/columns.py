"""A mix's stateless arrivals as columns, drawn a block at a time.

:class:`ColumnDraw` turns cycles ``[now, stop)`` of one stateless class
of a mix (a single-class mix is class 0) into int64 columns ``(cycle,
node)``, by cycle then node; as the mix takes the rows,
:meth:`ColumnDraw.destinations` draws their β coins and destinations.
They are bit-exact with the per-message ``random.Random`` calls they
replace because they are computed from the same words:
``rng.getrandbits(32 * k)`` is the next ``k`` words in draw order and
leaves the generator where those calls would.  A uniform is
``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53`` (``random()``, a β coin);
``randrange(m)`` a word's top ``m.bit_length()`` bits, retried while
``>= m``, drawing exactly the words accepted (the shortfall topped up);
a Bernoulli gap ``floor(log(1 - U) / log1p(-rate))``, the few quotients
within a few ulps of an integer recomputed with ``math.log`` (``np.log``
may differ from libm's in the last ulp).  Python calls ``getrandbits``
once per stream that needs words; the arithmetic is one vectorised pass.
Arrival streams are drawn ahead into one pending array (no stream is
shared, so that moves no other draw); β and destination streams never.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.traffic.arrival import BernoulliInjector
from repro.traffic.generators import UniformPattern

__all__ = ["ColumnDraw", "words", "uniforms", "gaps", "below", "by_node",
           "FAR"]

#: Longest gap drawn as such; longer ones are capped here (2**46 cycles
#: is past any horizon an engine reaches), which keeps a row's cumulative
#: sum of up to ``_MAX_K`` gaps, and a block's ``(cycle, node)`` sort key
#: for fewer than 2**16 nodes, inside int64.
FAR = 1 << 46
#: Most gaps one node draws per refill.
_MAX_K = 4096
#: Fewer rows than this take their β coins and destinations from the
#: scalar calls themselves: numpy's set-up (~30 µs a call) outweighs
#: them, and one-cycle windows (the reference loop) are a row or two.
#: So does a pattern other than uniform, which picks per row anyway.
_FEW_ROWS = 64

Columns = Tuple[np.ndarray, np.ndarray]


def words(rngs: Sequence, counts: Sequence[int]) -> np.ndarray:
    """The next ``counts[j]`` 32-bit words of each ``rngs[j]``, joined
    in order."""
    return np.frombuffer(b"".join([
        r.getrandbits(32 * k).to_bytes(4 * k, "little")
        for r, k in zip(rngs, counts)]), "<u4")


def uniforms(w: np.ndarray) -> np.ndarray:
    """``random()`` of each consecutive word pair of ``w``."""
    a = (w[0::2] >> 5).astype(np.float64)
    b = (w[1::2] >> 6).astype(np.float64)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def gaps(u: np.ndarray, rate: float) -> np.ndarray:
    """``int(math.log(1 - u) / math.log1p(-rate))`` for each uniform,
    capped at :data:`FAR`; ``0 < rate < 1``."""
    d = math.log1p(-rate)
    q = np.log(1.0 - u) / d
    near = np.abs(q - np.rint(q)) <= q * 2.0 ** -40
    for i in np.flatnonzero(near).tolist():
        q[i] = math.log(1.0 - float(u[i])) / d
    return np.minimum(np.floor(q), FAR).astype(np.int64)


def by_node(node: np.ndarray) -> np.ndarray:
    """The stable argsort of a node column (a radix sort on 16 bits)."""
    if len(node) and node.max() < 1 << 16:
        node = node.astype(np.uint16)
    return np.argsort(node, kind="stable")


def below(rngs: Sequence, counts: np.ndarray, m: int) -> np.ndarray:
    """``counts[v]`` draws of ``rngs[v].randrange(m)`` for every ``v``,
    node-major and in draw order within a node."""
    shift = 32 - m.bit_length()
    todo = counts.copy()
    vals: List[np.ndarray] = []
    owner: List[np.ndarray] = []
    idx = np.flatnonzero(todo)
    while len(idx):
        w = words([rngs[v] for v in idx.tolist()], todo[idx].tolist())
        seg = np.repeat(idx, todo[idx])
        r = (w >> shift).astype(np.int64)
        ok = r < m
        vals.append(r[ok])
        owner.append(seg[ok])
        todo -= np.bincount(owner[-1], minlength=len(todo))
        idx = np.flatnonzero(todo)
    if len(vals) < 2:       # one round is node-major already
        return vals[0] if vals else np.zeros(0, np.int64)
    return np.concatenate(vals)[by_node(np.concatenate(owner))]


class ColumnDraw:
    """Block draws of class ``k`` of a mix (see the module docstring):
    its rate, β, destination pattern (``None``: all broadcasts) and
    streams from the mix's per-class tables.

    Reads the mix's injectors and ``tokens`` at the first block, so a
    caller may prune the node set before then (the shard worker keeps
    its own nodes).  Bernoulli injectors are drawn here from their
    streams, after the first gap each drew when it was built; any other
    stateless model through its own ``arrivals_in``.
    """

    def __init__(self, mix, k: int):
        self.mix = mix
        self.k = k
        self.bernoulli = all(type(inj) is BernoulliInjector for inj in
                             mix._injectors[k::len(mix._kinds)])
        _, _, self.rate, self.beta = mix._kinds[k]
        self.pattern = mix._patterns[k]
        self._nodes = None      # node id per local index, at first block
        self._last = None       # per node: its last drawn arrival
        self._pc = self._pj = None      # pending: cycle, local index
        self._end = 0           # where the last block stopped

    def block(self, now: int, stop: int) -> Columns:
        """The ``(cycle, node)`` columns of ``[now, stop)``."""
        if self._nodes is None:
            mix, k = self.mix, self.k
            mine = [i for i, tok in enumerate(mix.tokens) if tok[1] == k]
            self._inj = [mix._injectors[i] for i in mine]
            self._nodes = np.array([mix.tokens[i][0] for i in mine],
                                   np.int64)
        if self.bernoulli:
            cyc, j = self._bernoulli(now, stop)
        else:
            cyc, j = self._scalar(now, stop)
        nj = len(self._nodes)
        key = np.sort((cyc - now) * nj + j)     # by cycle, then node
        return key // nj + now, self._nodes[key % nj]

    # ------------------------------------------------------------------
    def _scalar(self, now: int, stop: int):
        cyc: List[int] = []
        j: List[int] = []
        for i, inj in enumerate(self._inj):
            ts = inj.arrivals_in(now, stop)
            cyc += ts
            j += [i] * len(ts)
        return np.array(cyc, np.int64), np.array(j, np.int64)

    def _bernoulli(self, now: int, stop: int):
        injectors = self._inj
        if self._last is None:      # each drew its first gap when built
            self._last = now + np.array(
                [min(inj._gap, FAR) for inj in injectors], np.int64)
            self._pc = self._last.copy()
            self._pj = np.arange(len(injectors))
        elif now != self._end:      # a skipped span is not consumed
            self._pc += now - self._end
            self._last += now - self._end
        self._end = stop
        rate = min(self.rate, 1.0)
        last = self._last
        new_c, new_j = [self._pc], [self._pj]
        while True:
            need = np.flatnonzero(last < stop - 1)
            if not len(need):
                break
            # enough gaps for about two such spans, so a node refills
            # about every other block
            span = int(stop - 1 - last[need].min())
            mu = span * rate
            k = min(int(2 * mu + 4.0 * math.sqrt(mu)) + 8, span + 1, _MAX_K)
            if rate >= 1.0:
                g = np.zeros((len(need), k), np.int64)
            else:
                u = uniforms(words([injectors[j].rng for j in need.tolist()],
                                   [2 * k] * len(need)))
                g = gaps(u, rate).reshape(len(need), k)
            c = last[need, None] + np.cumsum(g + 1, axis=1)
            last[need] = c[:, -1]
            new_c.append(c.ravel())
            new_j.append(np.repeat(need, k))
        pc, pj = np.concatenate(new_c), np.concatenate(new_j)
        due = pc < stop
        self._pc, self._pj = pc[~due], pj[~due]
        return pc[due], pj[due]

    def destinations(self, node: np.ndarray) -> np.ndarray:
        """The destination of each of the class's rows ``node`` (``-1``: a
        broadcast): β coins, then a destination per unicast, per node in
        arrival order, as the mix takes the rows."""
        mix, k = self.mix, self.k
        n = mix.net.n
        dst = np.full(len(node), -1, np.int64)
        if not len(node) or self.pattern is None:
            return dst
        coins, rngs, beta = mix._coin_rng[k], mix._dst_rng[k], self.beta
        if len(node) < _FEW_ROWS or type(self.pattern) is not UniformPattern:
            pick = self.pattern.pick
            dst[:] = [-1 if beta and coins[v].random() < beta
                      else pick(v, rngs[v]) for v in node.tolist()]
            return dst
        order = by_node(node)       # node-major, arrival order in a node
        if beta:
            counts = np.bincount(node, minlength=n)
            idx = np.flatnonzero(counts)
            u = uniforms(words([coins[v] for v in idx.tolist()],
                               (2 * counts[idx]).tolist()))
            order = order[u >= beta]        # the unicasts
        src = node[order]
        d = below(rngs, np.bincount(src, minlength=n), n - 1)
        dst[order] = d + (d >= src)
        return dst
