"""In-memory span recorder for the traced pass, and the arithmetic on
its output.

A span is ``{"id", "name", "start", "end", "parent", "workload"}`` with
times in seconds from the moment the harness spawned the traced child
(``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one epoch for parent
and child).  Spans nest strictly -- the child is single-threaded -- so a
span's self time is its duration minus its direct children's.  Seams
that fire per cycle or per table entry are kept as ``counts`` (calls and
accumulated seconds), not as one span per call.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Optional

__all__ = ["Tracer", "self_times", "layer_totals"]


class Tracer:
    def __init__(self, workload: str, origin: float):
        self.workload = workload
        self.origin = origin
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a finished span (absolute ``perf_counter`` stamps)."""
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name,
                           "start": start - self.origin,
                           "end": end - self.origin,
                           "parent": parent, "workload": self.workload})
        return sid

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, perf_counter(), perf_counter(), parent)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = perf_counter() - self.origin

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_iter(self, fn, name: str):
        """For a generator function: one span per ``next()``, so the
        time the consumer spends between items is not charged to it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            try:
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            finally:
                it.close()
        return traced

    def count(self, fn, name: str, timed: bool = False):
        """``fn`` with its calls counted under ``<name>_calls`` and, if
        ``timed``, its seconds accumulated under ``<name>_s``."""
        counts = self.counts
        calls = name + "_calls"
        counts.setdefault(calls, 0)
        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return counted
        secs = name + "_s"
        counts.setdefault(secs, 0.0)

        @functools.wraps(fn)
        def counted_timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[secs] += perf_counter() - t0
                counts[calls] += 1
        return counted_timed


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_totals(spans: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Span name -> ``{"total", "self", "calls"}`` summed over the
    spans of that name.  ``total`` skips a span nested (at any depth)
    inside another of the same name, so recursion is not counted twice.
    """
    spans = list(spans)
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s["name"],
                             {"total": 0.0, "self": 0.0, "calls": 0})
        agg["self"] += own[s["id"]]
        agg["calls"] += 1
        p = s["parent"]
        while p is not None and by_id[p]["name"] != s["name"]:
            p = by_id[p]["parent"]
        if p is None:
            agg["total"] += s["end"] - s["start"]
    return out
