"""Tests for online statistics, cross-checked against numpy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import BatchMeans, OnlineStats, quantile

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.n == 0
        assert s.variance == 0.0
        assert s.sem == 0.0

    def test_single_sample(self):
        s = OnlineStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.variance == 0.0
        assert (s.min, s.max) == (5.0, 5.0)

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy(self, xs):
        s = OnlineStats()
        for x in xs:
            s.add(x)
        assert s.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(xs, ddof=1),
                                           rel=1e-7, abs=1e-6)
        assert s.min == min(xs)
        assert s.max == max(xs)

    @given(st.lists(finite_floats, min_size=1, max_size=80),
           st.lists(finite_floats, min_size=1, max_size=80))
    def test_merge_equals_concatenation(self, xs, ys):
        a = OnlineStats()
        b = OnlineStats()
        c = OnlineStats()
        for x in xs:
            a.add(x)
            c.add(x)
        for y in ys:
            b.add(y)
            c.add(y)
        a.merge(b)
        assert a.n == c.n
        assert a.mean == pytest.approx(c.mean, rel=1e-9, abs=1e-6)
        assert a.variance == pytest.approx(c.variance, rel=1e-6, abs=1e-6)

    def test_merge_empty_is_noop(self):
        a = OnlineStats()
        a.add(1.0)
        a.merge(OnlineStats())
        assert a.n == 1

    def test_merge_into_empty(self):
        a = OnlineStats()
        b = OnlineStats()
        b.add(3.0)
        b.add(5.0)
        a.merge(b)
        assert a.n == 2
        assert a.mean == 4.0


class TestBatchMeans:
    def test_batches_form(self):
        bm = BatchMeans(batch_size=4)
        for i in range(10):
            bm.add(float(i))
        assert bm.batch_averages == [1.5, 5.5]   # partial third discarded

    def test_ci_requires_two_batches(self):
        bm = BatchMeans(batch_size=100)
        for i in range(150):
            bm.add(1.0)
        assert bm.confidence_interval() is None

    def test_ci_covers_true_mean_for_iid(self):
        rng = np.random.default_rng(0)
        bm = BatchMeans(batch_size=50)
        for x in rng.normal(10.0, 2.0, size=2000):
            bm.add(float(x))
        lo, hi = bm.confidence_interval()
        assert lo < 10.0 < hi
        assert hi - lo < 1.0

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BatchMeans(batch_size=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_add_many_is_add_bit_for_bit(self, seed):
        """The bulk fold (the cycle kernel's ``repro_welford``, exact
        integer batch sums) equals sequential ``add``: every field, bit
        for bit, ``min`` / ``max`` of the samples' type, over random runs
        of integer samples that cross batch boundaries, empty runs
        included.  Mutants killed: an FMA or reassociated update (the
        mean or m2 rounds differently), a float batch sum, a batch
        boundary off by one, float extremes for int samples."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 9))
        one, bulk = BatchMeans(size), BatchMeans(size)
        comp, comp_bulk = OnlineStats(), OnlineStats()
        for _ in range(12):
            xs = rng.integers(0, 3000, int(rng.integers(0, 3 * size)))
            for x in xs.tolist():
                one.add(x)
                comp.add(float(x))
            bulk.add_many(xs)
            comp_bulk.add_many(xs, float)
            for a, b in ((one.overall, bulk.overall), (comp, comp_bulk)):
                got = (b.n, b.mean, b._m2, b.min, b.max)
                assert got == (a.n, a.mean, a._m2, a.min, a.max)
                assert [type(v) for v in got] == [type(v) for v in (
                    a.n, a.mean, a._m2, a.min, a.max)]
            assert (bulk.batch_averages, bulk._acc, bulk._acc_n) == (
                one.batch_averages, one._acc, one._acc_n)
        assert type(bulk.overall.min) is int and type(comp_bulk.min) is float


class TestQuantile:
    def test_median_odd(self):
        assert quantile([1, 2, 3], 0.5) == 2

    def test_interpolation(self):
        assert quantile([0, 10], 0.25) == pytest.approx(2.5)

    @given(st.lists(finite_floats, min_size=1, max_size=100),
           st.floats(min_value=0, max_value=1))
    def test_matches_numpy_linear(self, xs, q):
        xs = sorted(xs)
        assert quantile(xs, q) == pytest.approx(
            float(np.quantile(xs, q)), rel=1e-9, abs=1e-6)

    def test_errors(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_quantile_nan_free(self):
        assert not math.isnan(quantile([3.0], 0.0))
