"""Online statistics for simulation output analysis.

The paper reports *average latency* curves versus offered load.  Producing
those numbers correctly requires the usual steady-state machinery:

* :class:`OnlineStats` -- numerically stable streaming mean/variance
  (Welford's algorithm), no sample storage.
* :class:`BatchMeans` -- batch-means confidence intervals for the mean of
  an autocorrelated output series (latencies of successive packets are
  correlated, so naive i.i.d. CIs would be too tight).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["OnlineStats", "BatchMeans", "quantile", "t_critical_95",
           "mean_ci95", "describe", "aggregate_values"]

#: two-sided 95% t critical values for df = 1..30 (df > 30 -> 1.96)
_T95 = [12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042]


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of
    freedom (normal approximation past df=30)."""
    if df < 1:
        raise ValueError(f"df must be >= 1 (got {df})")
    return _T95[df - 1] if df <= 30 else 1.96


def mean_ci95(stats: "OnlineStats") -> Optional[Tuple[float, float]]:
    """t-based 95% CI for the mean of independent samples folded into
    ``stats``, or ``None`` below 2 samples.  This is the cross-replicate
    interval: replicate means from independent seeds *are* i.i.d., so
    (unlike within-run latencies) no batching is needed."""
    if stats.n < 2:
        return None
    half = t_critical_95(stats.n - 1) * stats.sem
    return (stats.mean - half, stats.mean + half)


def describe(values: Sequence[float]) -> "OnlineStats":
    """Fold a finished sequence into an :class:`OnlineStats`."""
    stats = OnlineStats()
    for v in values:
        stats.add(float(v))
    return stats


def aggregate_values(values: Sequence[float]) -> Dict[str, object]:
    """Cross-replicate aggregate of one scalar metric: mean, stddev,
    t-based 95% CI (``None`` below 2 values) and sample count, as a
    JSON-ready dict.  The single aggregation implementation behind
    :class:`repro.sim.replication.MetricStats` and the per-class
    blocks of :func:`repro.core.collector.aggregate_class_blocks`."""
    stats = describe(values)
    ci = mean_ci95(stats)
    return {
        "mean": stats.mean if stats.n else 0.0,
        "stddev": stats.stddev,
        "ci95": list(ci) if ci is not None else None,
        "n": stats.n,
    }


class OnlineStats:
    """Streaming count/mean/variance/min/max via Welford's algorithm."""

    __slots__ = ("n", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        """Fold one sample into the summary."""
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def add_many(self, xs, kind=int) -> None:
        """:meth:`add` of ``kind(x)`` for each integer of ``xs`` (a
        contiguous int64 numpy column), in order, in one pass of the
        cycle kernel's copy of it (``repro.sim.ckernel.welford``)."""
        if len(xs):
            from repro.sim.ckernel import welford
            self.n, lo, hi, self.mean, self._m2 = welford(
                self.n, self.min, self.max, self.mean, self._m2, xs)
            self.min, self.max = kind(lo), kind(hi)

    def merge(self, other: "OnlineStats") -> None:
        """Fold another summary in (parallel-combinable, Chan et al.)."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self._m2 = other.n, other.mean, other._m2
            self.min, self.max = other.min, other.max
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self.mean += delta * other.n / n
        self.n = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 for fewer than 2 samples)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.stddev / math.sqrt(self.n) if self.n else 0.0

    def __repr__(self) -> str:
        if self.n == 0:
            return "OnlineStats(empty)"
        return (f"OnlineStats(n={self.n}, mean={self.mean:.3f}, "
                f"sd={self.stddev:.3f}, min={self.min:g}, max={self.max:g})")


class BatchMeans:
    """Batch-means estimator for the mean of a correlated series.

    Samples are accumulated into ``nbatches`` equal-size batches; the batch
    averages are (approximately) independent, so a t-interval over them is
    a defensible confidence interval for steady-state simulation output.
    """

    def __init__(self, batch_size: int = 200):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size
        self._acc = 0.0
        self._acc_n = 0
        self.batch_averages: List[float] = []
        self.overall = OnlineStats()

    def add(self, x: float) -> None:
        self.overall.add(x)
        self._acc += x
        self._acc_n += 1
        if self._acc_n == self.batch_size:
            self.batch_averages.append(self._acc / self._acc_n)
            self._acc = 0.0
            self._acc_n = 0

    def add_many(self, xs) -> None:
        """:meth:`add` of each integer of ``xs`` (as in
        :meth:`OnlineStats.add_many`): integer batch sums are exact."""
        self.overall.add_many(xs)
        k, i = self.batch_size, self.batch_size - self._acc_n
        if len(xs) < i:
            self._acc += int(xs.sum())
            self._acc_n += len(xs)
            return
        j = len(xs) - (len(xs) - i) % k         # the last batch's end
        self.batch_averages.append((self._acc + int(xs[:i].sum())) / k)
        self.batch_averages += (xs[i:j].reshape(-1, k).sum(axis=1)
                                / k).tolist()
        self._acc, self._acc_n = float(xs[j:].sum()), len(xs) - j

    @property
    def mean(self) -> float:
        return self.overall.mean

    def confidence_interval(self) -> Optional[Tuple[float, float]]:
        """95% CI for the mean, or ``None`` with fewer than 2 batches."""
        k = len(self.batch_averages)
        if k < 2:
            return None
        stats = OnlineStats()
        for b in self.batch_averages:
            stats.add(b)
        half = t_critical_95(k - 1) * stats.stddev / math.sqrt(k)
        return (stats.mean - half, stats.mean + half)


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(sorted_values[lo])
    frac = pos - lo
    return float(sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac)
