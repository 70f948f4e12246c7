"""Warmup-aware latency and throughput accounting.

One collector instance is shared by all adapters of a network.  Latency is
measured from message **creation** (the cycle the PE handed the message to
its network interface) to tail-flit delivery; for collectives, completion
is the delivery at the *last* receiver.  Measuring from creation rather
than injection is what exposes the Spidergon one-port bottleneck the paper
highlights ("the messages may block on an occupied injection channel even
when their required network channels are free", Sec. 2.1).

Only messages created at or after ``warmup`` contribute samples; messages
created earlier are counted but not measured (standard initialization-bias
control).

Multi-class workloads (:class:`~repro.traffic.mix.TrafficClass`) tag
their packets and collective ops with a class name; deliveries of tagged
messages additionally feed a per-class :class:`ClassStats` breakdown
(delivered count + latency), which the session surfaces as the
``classes`` block of the run summary.  Untagged traffic (the paper's
single-class workload) pays one attribute test per *delivery* and keeps
its aggregate statistics bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.sim.stats import BatchMeans, OnlineStats, aggregate_values

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.packet import CollectiveOp, Packet
    from repro.obs.hist import HistogramBank

#: ``aggregate_values`` (defined next to its statistics machinery in
#: :mod:`repro.sim.stats`) is re-exported here as part of the summary
#: aggregation surface alongside :func:`aggregate_class_blocks`.
__all__ = ["ClassStats", "LatencyCollector", "aggregate_values",
           "aggregate_class_blocks"]

#: per-class summary keys that vary run to run and are aggregated
#: across replicates (the remaining keys -- cast/msg_len/rate -- are
#: class declarations, constant across seeds, and carried through)
_CLASS_MEASURED_KEYS = ("generated", "delivered", "latency_mean",
                        "samples",
                        # closed-loop completion accounting; present
                        # only on classes with closed-loop semantics
                        # (the per-key guard below skips them elsewhere)
                        "completed", "completion_mean",
                        "completion_samples")


def aggregate_class_blocks(blocks: Sequence[Mapping[str, Mapping]]
                           ) -> Dict[str, Dict[str, object]]:
    """Aggregate the per-class breakdown blocks of replicate runs
    (each block is one run's ``summary.extra["classes"]``).

    Class declarations (``cast`` / ``msg_len`` / ``rate``) are constant
    across seeds and copied from the first block; measured keys become
    :func:`aggregate_values` dicts.  Class order follows first-seen
    order across blocks, so the result is deterministic for any
    execution schedule that delivers blocks in replicate order."""
    names: List[str] = []
    for block in blocks:
        for name in block:
            if name not in names:
                names.append(name)
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        entries = [block[name] for block in blocks if name in block]
        agg: Dict[str, object] = {}
        for key in ("cast", "msg_len", "rate"):
            if key in entries[0]:
                agg[key] = entries[0][key]
        for key in _CLASS_MEASURED_KEYS:
            if key in entries[0]:
                agg[key] = aggregate_values(
                    [float(e[key]) for e in entries])
        out[name] = agg
    return out


class ClassStats:
    """Delivery-side accounting for one workload traffic class."""

    __slots__ = ("delivered", "latency")

    def __init__(self) -> None:
        self.delivered = 0
        self.latency = OnlineStats()

    @property
    def latency_mean(self) -> float:
        return self.latency.mean if self.latency.n else 0.0

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"<ClassStats delivered={self.delivered} "
                f"mean={self.latency_mean:.1f}>")


class LatencyCollector:
    """Latency/throughput sink shared by the adapters of one network."""

    def __init__(self, warmup: int = 0):
        self.warmup = warmup
        # collectives are rarer: smaller batches still give a CI
        self.unicast = BatchMeans(100)
        self.collective = BatchMeans(10)
        self.delivery = OnlineStats()       # per-receiver collective latency
        self.generated_unicast = 0
        self.generated_collective = 0
        self.delivered_unicast = 0
        self.completed_collective = 0
        self.relay_segments = 0             # Spidergon replication traffic
        #: per-class delivery breakdown, keyed by traffic-class name
        #: (populated only when the workload tags its messages)
        self.per_class: Dict[str, ClassStats] = {}
        #: optional latency-distribution sink
        #: (:class:`repro.obs.hist.HistogramBank`); ``None`` keeps the
        #: delivery path at one attribute test -- the zero-overhead
        #: contract of the observability layer
        self.hist: Optional["HistogramBank"] = None

    # -- generation side (called by traffic generators / adapters) -------
    def note_generated(self, collective: bool, k: int = 1) -> None:
        if collective:
            self.generated_collective += k
        else:
            self.generated_unicast += k

    # -- delivery side (called by adapters) ------------------------------
    def _class_stats(self, name: str) -> ClassStats:
        stats = self.per_class.get(name)
        if stats is None:
            stats = self.per_class[name] = ClassStats()
        return stats

    def on_unicast(self, pkt: "Packet", now: int) -> None:
        self.on_unicast_cols(pkt.created, pkt.cls, now)

    def on_unicast_cols(self, created: int, cls: Optional[str],
                        now: int) -> None:
        """Column-based unicast delivery: same accounting as
        :meth:`on_unicast` but fed from an array engine's flit payload
        columns (inject-cycle and class-id), so a delivery does not need
        the :class:`~repro.noc.packet.Packet` object at all."""
        self.delivered_unicast += 1
        self._fold_one(self.unicast, "add_unicast", created, cls, now)

    def on_unicasts(self, created, cid, names: Sequence[Optional[str]],
                    now) -> None:
        """:meth:`on_unicast_cols` for a batch of tails given as int64
        numpy columns in delivery order (``cid`` indexes the class
        ``names``), each statistic folded in that order in one pass."""
        self.delivered_unicast += len(now)
        self._fold(self.unicast, "add_unicast", created, cid, names, now)

    def on_collectives(self, created, cid, names: Sequence[Optional[str]],
                       now) -> None:
        """:meth:`on_collective_cols` for a batch of completions, as
        :meth:`on_unicasts` takes tails."""
        self.completed_collective += len(now)
        self._fold(self.collective, "add_collective", created, cid, names,
                   now)

    def _fold(self, overall: BatchMeans, hist: str, created, cid, names,
              now) -> None:
        """Fold latencies ``now - created`` (columns) into ``overall``,
        the histograms (``hist``: the bank's method) and each class's
        statistics, each in column order."""
        import numpy as np      # the array engine's dependency, not ours
        measured = created >= self.warmup
        lat = now - created
        overall.add_many(lat[measured])
        for c in np.flatnonzero(np.bincount(cid)).tolist():
            mine = cid == c
            if self.hist is not None:
                k = np.bincount(lat[mine & measured])
                for x in np.flatnonzero(k).tolist():
                    getattr(self.hist, hist)(x, names[c], int(k[x]))
            if names[c] is not None:
                stats = self._class_stats(names[c])
                stats.delivered += int(mine.sum())
                stats.latency.add_many(lat[mine & measured])

    def on_collective_tail(self, op: "CollectiveOp", node: int,
                           now: int) -> None:
        """A tail of ``op`` reached ``node`` -- the arrival rule, for
        adapters and the shard merge (the array engine's kernel applies
        it at the cycle, ``_cycle_kernel.c``): a node's first arrival is
        a per-receiver sample, the last expected one completes the op."""
        was_new = node not in op.deliveries
        done = op.deliver(node, now)
        if was_new and op.created >= self.warmup:
            self.delivery.add(now - op.created)
        if done:
            self.on_collective_complete(op, now)

    def on_collective_complete(self, op: "CollectiveOp", now: int) -> None:
        """``op``'s last expected receiver, on every path to it."""
        self.on_collective_cols(op.created, op.cls, now)
        if op.on_complete is not None:
            op.on_complete(now)

    def on_collective_cols(self, created: int, cls: Optional[str],
                           now: int) -> None:
        """A collective completed at ``now``, from its creation cycle and
        class (an array engine's receipt slot needs no op object)."""
        self.completed_collective += 1
        self._fold_one(self.collective, "add_collective", created, cls, now)

    def _fold_one(self, overall: BatchMeans, hist: str, created: int,
                  cls: Optional[str], now: int) -> None:
        """:meth:`_fold` for one latency ``now - created`` of class
        ``cls``."""
        measured = created >= self.warmup
        if measured:
            overall.add(now - created)
            if self.hist is not None:
                getattr(self.hist, hist)(now - created, cls)
        if cls is not None:
            stats = self._class_stats(cls)
            stats.delivered += 1
            if measured:
                stats.latency.add(now - created)

    def on_relay_segment(self) -> None:
        self.relay_segments += 1

    # -- results ----------------------------------------------------------
    @property
    def unicast_mean(self) -> float:
        return self.unicast.mean if self.unicast.overall.n else 0.0

    @property
    def collective_mean(self) -> float:
        return self.collective.mean if self.collective.overall.n else 0.0

    def unicast_ci(self) -> Optional[tuple]:
        return self.unicast.confidence_interval()

    def collective_ci(self) -> Optional[tuple]:
        return self.collective.confidence_interval()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LatencyCollector uni n={self.unicast.overall.n} "
                f"mean={self.unicast_mean:.1f} | coll "
                f"n={self.collective.overall.n} "
                f"mean={self.collective_mean:.1f}>")
