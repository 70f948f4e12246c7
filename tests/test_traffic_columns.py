"""The single-class mix's block draw is the per-message draw, word for word.

``repro.traffic.columns.ColumnDraw`` computes a block's ``(cycle, node)``
columns and their ``dst`` from raw ``getrandbits`` words with numpy.  The
oracle is the scalar loop it replaced (``helpers.scalar_columns``: one
gap, one broadcast coin and one ``UniformPattern.pick`` per message, each
a ``random.Random`` call).  Pinned here: equal columns and equal final
generator states over random seeds, sizes, β, the rates where a gap
consumes no word (0, subnormal, 1.0) and the ones where it does, any
block segmentation, and quotients a last-ulp ``log`` difference could
floor the other way.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from helpers import scalar_columns, scalar_gap
from hypothesis import example, given, settings, strategies as st

from repro.sim.rng import RngStreams
from repro.traffic.columns import FAR, gaps
from repro.traffic.mix import TrafficMix

RATES = (0.0, 5e-324, 1e-7, 0.0138, 1.0)
SETTINGS = dict(derandomize=True, deadline=None)


def _streams(seed: int, n: int, purpose: str):
    streams = RngStreams(seed)
    return [streams.get(f"node{i}.{purpose}") for i in range(n)]


@settings(max_examples=25, **SETTINGS)
@example(seed=3, n=2, rate=1.0, beta=0.5, data=None)
@example(seed=5, n=64, rate=0.0138, beta=0.0, data=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 384),
       rate=st.sampled_from(RATES),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), data=st.data())
def test_block_draw_is_the_scalar_draw(seed, n, rate, beta, data):
    # at most ~6 000 arrivals, so the scalar oracle stays quick
    horizon = max(2, min(3000, int(6000 / (n * max(rate, 1e-9)))))
    inner = [] if data is None else data.draw(
        st.lists(st.integers(1, horizon - 1), max_size=6))
    cuts = [0, *sorted(set(inner)), horizon]
    mix = TrafficMix(SimpleNamespace(n=n, fault_state=None), rate, 4,
                     beta=beta, seed=seed)
    draw = mix._draws[0][1]
    got = []
    for a, b in zip(cuts, cuts[1:]):
        cyc, node = draw.block(a, b)
        got += zip(cyc.tolist(), node.tolist(),
                   draw.destinations(node).tolist())

    arrivals = _streams(seed, n, "arrivals")
    classes, dsts = _streams(seed, n, "class"), _streams(seed, n, "dst")
    want, nxt = scalar_columns(arrivals, classes, dsts, rate, beta, cuts)
    assert got == want
    # destinations and broadcast coins are drawn exactly, never ahead; at
    # β = 0 the mix holds no coin streams and the oracle draws no coin
    coins = mix._coin_rng[0]
    assert (coins is None) == (not beta)
    unused = _streams(seed, n, "class")
    for v in range(n):
        assert (coins or unused)[v].getstate() == classes[v].getstate()
        assert mix._dst_rng[0][v].getstate() == dsts[v].getstate()
    # arrivals are drawn ahead: the scalar loop drawing on reaches the
    # same pending arrivals (each node's first is the one it drew last)
    # and the same generator state
    pending = [[] for _ in range(n)]
    for c, j in sorted(zip(draw._pc.tolist(), draw._pj.tolist())):
        pending[j].append(c)
    for v in range(n):
        assert pending[v]
        for c in pending[v]:
            if c >= FAR:
                assert nxt[v] >= FAR
                break
            if c > pending[v][0]:
                nxt[v] += 1 + scalar_gap(arrivals[v], rate)
            assert nxt[v] == c
        assert mix._injectors[v].rng.getstate() == arrivals[v].getstate()


@settings(max_examples=60, **SETTINGS)
@given(rate=st.floats(1e-9, 0.999), k=st.integers(0, 10**7),
       ulps=st.lists(st.integers(-6, 6), min_size=1, max_size=16))
def test_gap_floor_near_an_integer(rate, k, ulps):
    """Uniforms whose quotient ``log(1 - u) / log1p(-rate)`` lands within
    a few ulps of the integer ``k``: where ``np.log`` and libm's ``log``
    may disagree in the last place, the floor is still libm's."""
    d = math.log1p(-rate)
    u0 = 1.0 - math.exp(k * d)
    if not 0.0 <= u0 < 1.0:
        return
    us = []
    for step in ulps:
        u = u0
        for _ in range(abs(step)):
            u = float(np.nextafter(u, 1.0 if step > 0 else 0.0))
        if 0.0 <= u < 1.0:
            us.append(u)
    want = [min(int(math.log(1.0 - u) / d), FAR) for u in us]
    assert gaps(np.array(us), rate).tolist() == want


def test_gap_floor_where_numpy_log_is_not_libm():
    """Forced cases: for uniforms where ``np.log`` and libm's ``log``
    differ in the last place, rates chosen so the two quotients fall on
    either side of an integer.  The unguarded numpy floor is wrong on
    every one of them; ``gaps`` is libm's."""
    rng = np.random.default_rng(1)
    u = np.floor(rng.random(50_000) * 2.0 ** 53) / 2.0 ** 53
    fast = np.log(1.0 - u)
    libm = np.array([math.log(1.0 - x) for x in u.tolist()])
    cases = []
    for i in np.flatnonzero(fast != libm).tolist():
        for k in (3, 17, 101, 1000):
            rate = -math.expm1(libm[i] / k)
            d = math.log1p(-rate)
            if math.floor(fast[i] / d) != math.floor(libm[i] / d):
                cases.append((float(u[i]), rate, int(libm[i] / d)))
    for x, rate, want in cases:
        assert gaps(np.full(16, x), rate).tolist() == [want] * 16
