"""Arrival-trace record and replay (JSONL), formats v1 and v2.

A trace pins a workload so it can be replayed deterministically.  Two
formats exist:

* ``repro-trace/v1`` records the *temporal* half only: which node
  injected at which cycle.  Spatial choices (destinations, the
  broadcast/unicast coin) are re-drawn from their named RNG streams at
  replay time, so a v1 replay is flit-exact only with the original seed
  and pattern.
* ``repro-trace/v2`` (written by :class:`TraceRecorder` since the
  multi-class refactor) records the full injection decision per event --
  destination, message size, traffic-class name and broadcast flag -- so
  replay is **seed- and pattern-independent** and works for multi-class
  workloads (where one node may inject several classes in one cycle).
  :class:`~repro.traffic.mix.TrafficMix` detects a v2 payload on its
  arrival model, replays one arrival per recorded message
  (:class:`~repro.traffic.arrival.ReplayInjector`) and injects each
  message verbatim, consuming no randomness.

Format
------
Line-oriented JSON, one object per line:

* line 1, the header::

      {"format": "repro-trace/v2", "n": 16, "meta": {...}}

  ``n`` is the node count the trace was recorded on (replay networks
  must match); ``meta`` is free-form provenance (source scenario, rate,
  seed, horizon).
* every further line, one arrival.  v1::

      {"t": 1042, "node": 3}

  v2 (``dst`` is -1 for broadcasts; ``cls`` is null for untagged
  single-class traffic)::

      {"t": 1042, "node": 3, "dst": 7, "size": 10, "cls": "fill",
       "bcast": false}

  sorted by ``(t, node)`` -- the order the simulator injects in.  v1
  allows at most one arrival per node per cycle; v2 allows several
  (multi-class), in their original injection order.

Record with :class:`TraceRecorder` (hooks
:attr:`repro.traffic.mix.TrafficMix.on_inject`, so both backends record
identically), replay through the ``"trace:path=..."`` arrival scenario
(:mod:`repro.workloads.registry`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["TRACE_FORMAT", "TRACE_FORMAT_V2", "Trace", "TraceRecorder"]

TRACE_FORMAT = "repro-trace/v1"
TRACE_FORMAT_V2 = "repro-trace/v2"

#: tuple layouts: v1 events are ``(t, node)``; v2 events are
#: ``(t, node, dst, size, cls, bcast)``
_V1_LEN, _V2_LEN = 2, 6


@dataclass
class Trace:
    """An in-memory arrival trace: node count + sorted event tuples.

    ``events`` holds ``(t, node)`` pairs (v1) or ``(t, node, dst, size,
    cls, bcast)`` records (v2); the two layouts cannot be mixed.
    """

    n: int
    events: List[Tuple] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"trace needs n >= 1 nodes (got {self.n})")
        lengths = {len(ev) for ev in self.events}
        if lengths - {_V1_LEN, _V2_LEN} or len(lengths) > 1:
            raise ValueError(
                f"trace events must be uniform (t, node) or (t, node, "
                f"dst, size, cls, bcast) tuples (got lengths {lengths})")
        for ev in self.events:
            t, node = ev[0], ev[1]
            if not 0 <= node < self.n:
                raise ValueError(
                    f"trace event node {node} out of range for n={self.n}")
            if t < 0:
                raise ValueError(f"trace event cycle {t} is negative")
            if len(ev) == _V2_LEN:
                _, _, dst, size, cls, bcast = ev
                if size < 1:
                    raise ValueError(
                        f"trace event size {size} must be >= 1 flit")
                if bcast:
                    if dst != -1:
                        raise ValueError(
                            f"broadcast trace event must carry dst=-1 "
                            f"(got {dst})")
                elif not 0 <= dst < self.n or dst == node:
                    raise ValueError(
                        f"trace event dst {dst} of node {node} is out of "
                        f"range for n={self.n} or the node itself")
        # stable sort on (t, node): same-cycle events of one node (a
        # multi-class v2 burst) keep their recorded injection order
        self.events.sort(key=lambda ev: (ev[0], ev[1]))

    @property
    def version(self) -> int:
        return 2 if self.events and len(self.events[0]) == _V2_LEN else 1

    def __len__(self) -> int:
        return len(self.events)

    def per_node(self) -> List[List[int]]:
        """Arrival cycles split per node (ascending), length ``n``."""
        out: List[List[int]] = [[] for _ in range(self.n)]
        for ev in self.events:
            out[ev[1]].append(ev[0])
        return out

    def per_node_events(self) -> List[List[Tuple]]:
        """v2 payloads split per node: ``(t, dst, size, cls, bcast)``
        records in injection order, length ``n``."""
        if self.version != 2:
            raise ValueError("per_node_events needs a v2 trace "
                             "(v1 records arrival times only)")
        out: List[List[Tuple]] = [[] for _ in range(self.n)]
        for t, node, dst, size, cls, bcast in self.events:
            out[node].append((t, dst, size, cls, bcast))
        return out

    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Write the JSONL file (format follows the event layout);
        returns ``path``."""
        v2 = self.version == 2
        fmt = TRACE_FORMAT_V2 if v2 else TRACE_FORMAT
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": fmt, "n": self.n,
                                 "meta": self.meta}) + "\n")
            if v2:
                for t, node, dst, size, cls, bcast in self.events:
                    fh.write(json.dumps(
                        {"t": t, "node": node, "dst": dst, "size": size,
                         "cls": cls, "bcast": bool(bcast)}) + "\n")
            else:
                for t, node in self.events:
                    fh.write(f'{{"t": {t}, "node": {node}}}\n')
        return path

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read and validate a JSONL trace file (either format)."""
        with open(path) as fh:
            header_line = fh.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: first line is not a JSON header: {exc}"
                ) from None
            fmt = header.get("format") if isinstance(header, dict) else None
            if fmt not in (TRACE_FORMAT, TRACE_FORMAT_V2):
                raise ValueError(
                    f"{path}: not a {TRACE_FORMAT} or {TRACE_FORMAT_V2} "
                    f"trace (header {header_line.strip()!r})")
            v2 = fmt == TRACE_FORMAT_V2
            n = header.get("n")
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"{path}: header 'n' must be a positive "
                                 f"integer (got {n!r})")
            events: List[Tuple] = []
            prev: Optional[Tuple[int, int]] = None
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    ev = json.loads(line)
                    t, node = int(ev["t"]), int(ev["node"])
                    if v2:
                        dst = int(ev["dst"])
                        size = int(ev["size"])
                        raw_cls = ev["cls"]
                        if raw_cls is not None:
                            raw_cls = str(raw_cls)
                        bcast = bool(ev["bcast"])
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError):
                    want = ('{"t", "node", "dst", "size", "cls", "bcast"}'
                            if v2 else '{"t": <cycle>, "node": <node>}')
                    raise ValueError(
                        f"{path}:{lineno}: bad trace event {line!r}; "
                        f"expected {want}"
                    ) from None
                # validate while the line number is still known -- the
                # Trace constructor would only report the bad values
                if t < 0:
                    raise ValueError(
                        f"{path}:{lineno}: negative cycle {t}")
                if not 0 <= node < n:
                    raise ValueError(
                        f"{path}:{lineno}: node {node} out of range "
                        f"for n={n}")
                if prev is not None:
                    if (t, node) < prev or (not v2 and (t, node) == prev):
                        what = ("duplicate" if (t, node) == prev
                                else "out-of-order")
                        raise ValueError(
                            f"{path}:{lineno}: {what} event (t={t}, "
                            f"node={node}) after (t={prev[0]}, "
                            f"node={prev[1]}); traces must be sorted "
                            f"by (t, node)" +
                            ("" if v2 else " with at most one arrival "
                                           "per node per cycle"))
                prev = (t, node)
                if v2:
                    if size < 1:
                        raise ValueError(
                            f"{path}:{lineno}: size {size} must be >= 1")
                    if bcast:
                        if dst != -1:
                            raise ValueError(
                                f"{path}:{lineno}: broadcast event must "
                                f"carry dst=-1 (got {dst})")
                    elif not 0 <= dst < n or dst == node:
                        raise ValueError(
                            f"{path}:{lineno}: dst {dst} of node {node} is "
                            f"out of range for n={n} or the node itself")
                    events.append((t, node, dst, size, raw_cls, bcast))
                else:
                    events.append((t, node))
        return cls(n=n, events=events,
                   meta=dict(header.get("meta") or {}))


class TraceRecorder:
    """Captures every injection of a :class:`~repro.traffic.mix.TrafficMix`.

    >>> recorder = TraceRecorder.attach(session.mix)   # doctest: +SKIP
    >>> session.run()                                  # doctest: +SKIP
    >>> recorder.trace().save("run.jsonl")             # doctest: +SKIP

    ``TrafficMix.inject`` is the single funnel both backends go through
    (the reference loop via ``generate``, the array engine's window
    loop directly, both reading the mix's calendar), so the recorded
    train is backend-independent.  Recordings carry the full injection
    decision (``repro-trace/v2``): destination, size, class name and
    broadcast flag per event.
    """

    def __init__(self, n: int, meta: Optional[Dict[str, object]] = None):
        self.n = n
        self.meta: Dict[str, object] = dict(meta or {})
        self.events: List[Tuple] = []

    def note(self, node: int, now: int, cls: Optional[str], dst: int,
             size: int, bcast: bool) -> None:
        """The ``on_inject`` callback: one message entered at ``node``."""
        self.events.append((now, node, dst, size, cls, bcast))

    def trace(self) -> Trace:
        return Trace(n=self.n, events=list(self.events), meta=self.meta)

    @classmethod
    def attach(cls, mix, meta: Optional[Dict[str, object]] = None
               ) -> "TraceRecorder":
        """Create a recorder and install it as ``mix.on_inject``."""
        rec = cls(n=mix.net.n, meta=meta)
        mix.on_inject = rec.note
        return rec
