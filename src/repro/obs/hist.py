"""HDR-style log-bucket latency histograms.

The run summaries report *mean* latency; near saturation the latency
distribution grows a heavy tail the mean hides, which is exactly the
regime the paper's figures care about.  :class:`LatencyHistogram` keeps
a full latency distribution in O(log(max) * 2^K) integer counters:

* Values below ``2**SUBBITS`` get one bucket each (exact).
* Above that, each power-of-two range ``[2**i, 2**(i+1))`` is split
  into ``2**(SUBBITS-1)`` equal sub-buckets, so the relative width of
  any bucket -- and therefore the relative error of any reported
  percentile -- is bounded by ``2**-(SUBBITS-1)`` (~6% at the default
  ``SUBBITS=5``).

Everything is integer arithmetic on integer cycle counts: the same
sample stream produces byte-identical histograms on every backend, so
``RunSummary.extra["latency_hist"]`` is safe under the cross-backend
summary-equality contract.  Percentiles are reported as the upper bound
of the covering bucket (clamped to the observed max), which makes them
deterministic integers rather than interpolated floats.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["LatencyHistogram", "HistogramBank"]


class LatencyHistogram:
    """Sparse log-bucket histogram over non-negative integer samples."""

    #: sub-bucket resolution: values < 2**SUBBITS are exact; above,
    #: every octave has 2**(SUBBITS-1) buckets (rel. error <= 1/16).
    SUBBITS = 5

    __slots__ = ("counts", "n", "total", "min", "max")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.n = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max = 0

    # ------------------------------------------------------------------
    @classmethod
    def bucket_index(cls, value: int) -> int:
        """The bucket index covering ``value`` (exact below 2**SUBBITS)."""
        k = cls.SUBBITS
        if value < (1 << k):
            return value
        e = value.bit_length() - k
        m = value >> e                      # in [2**(k-1), 2**k)
        return (1 << k) + (e - 1) * (1 << (k - 1)) + (m - (1 << (k - 1)))

    @classmethod
    def bucket_bound(cls, index: int) -> int:
        """Inclusive upper bound of bucket ``index`` (the value a
        percentile falling in this bucket reports)."""
        k = cls.SUBBITS
        if index < (1 << k):
            return index
        r = index - (1 << k)
        e = r // (1 << (k - 1)) + 1
        m = (1 << (k - 1)) + r % (1 << (k - 1))
        return ((m + 1) << e) - 1

    # ------------------------------------------------------------------
    def add(self, value: int, k: int = 1) -> None:
        """``k`` samples of ``value``."""
        value = int(value)
        if value < 0:
            raise ValueError(f"latency samples must be >= 0 (got {value})")
        idx = self.bucket_index(value)
        self.counts[idx] = self.counts.get(idx, 0) + k
        self.n += k
        self.total += value * k
        if self.min is None or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> int:
        """The q-quantile (``q`` in [0, 1]) as a deterministic integer:
        the upper bound of the bucket holding the ceil(q*n)-th sample,
        clamped to the observed maximum.  0 for an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1] (got {q})")
        if self.n == 0:
            return 0
        rank = min(self.n, max(1, math.ceil(q * self.n - 1e-9)))
        acc = 0
        for idx in sorted(self.counts):
            acc += self.counts[idx]
            if acc >= rank:
                return min(self.bucket_bound(idx), self.max)
        return self.max

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: summary percentiles + the sparse buckets
        (sorted ``[index, count]`` pairs).  All values are ints."""
        return {
            "n": self.n,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": [[idx, self.counts[idx]]
                        for idx in sorted(self.counts)],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LatencyHistogram n={self.n} "
                f"p50={self.percentile(0.5)} max={self.max}>")


class HistogramBank:
    """The per-run histogram set the collector feeds: aggregate unicast
    and collective-completion latencies plus a per-class breakdown
    (populated only for tagged multi-class traffic)."""

    __slots__ = ("unicast", "collective", "classes")

    def __init__(self) -> None:
        self.unicast = LatencyHistogram()
        self.collective = LatencyHistogram()
        self.classes: Dict[str, LatencyHistogram] = {}

    def _class_hist(self, name: str) -> LatencyHistogram:
        hist = self.classes.get(name)
        if hist is None:
            hist = self.classes[name] = LatencyHistogram()
        return hist

    def add_unicast(self, latency: int, cls: Optional[str],
                    k: int = 1) -> None:
        self.unicast.add(latency, k)
        if cls is not None:
            self._class_hist(cls).add(latency, k)

    def add_collective(self, latency: int, cls: Optional[str],
                       k: int = 1) -> None:
        self.collective.add(latency, k)
        if cls is not None:
            self._class_hist(cls).add(latency, k)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "unicast": self.unicast.to_dict(),
            "collective": self.collective.to_dict(),
        }
        if self.classes:
            out["classes"] = {name: self.classes[name].to_dict()
                              for name in sorted(self.classes)}
        return out


def render_histogram(data: Dict[str, object], width: int = 40,
                     label: str = "") -> List[str]:
    """Render one histogram dict (:meth:`LatencyHistogram.to_dict`
    form) as table lines for the CLI: percentile row + a bucket bar
    chart over the occupied range."""
    lines: List[str] = []
    n = int(data.get("n", 0))
    head = (f"{label + ': ' if label else ''}n={n} "
            f"min={data.get('min', 0)} p50={data.get('p50', 0)} "
            f"p95={data.get('p95', 0)} p99={data.get('p99', 0)} "
            f"max={data.get('max', 0)}")
    lines.append(head)
    buckets = data.get("buckets") or []
    if not n or not buckets:
        return lines
    peak = max(count for _, count in buckets)
    for idx, count in buckets:
        bound = LatencyHistogram.bucket_bound(int(idx))
        bar = "#" * max(1, int(round(count / peak * width)))
        lines.append(f"  <= {bound:>8d} {count:>8d} {bar}")
    return lines


__all__.append("render_histogram")
