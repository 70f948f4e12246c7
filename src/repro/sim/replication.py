"""Multi-seed replication: seed plans, the sharded execution engine
and cross-replicate summaries.

Every latency/throughput number the reproduction reports used to come
from a *single* RNG seed -- a noisy point estimate, especially near the
saturation knee where the latency distribution has a heavy tail.  This
module turns one :class:`~repro.sim.session.RunConfig` into R
statistically independent replicates and aggregates them:

* :class:`ReplicationPlan` -- R child seeds spawned from a root seed via
  the same BLAKE2b derivation the in-run RNG streams use
  (:func:`repro.sim.rng.derive_seed` under the reserved ``replicate:{r}``
  names), so replicate seeds can never collide with -- or perturb -- the
  per-node stream seeds the golden fixtures pin.
* :class:`ExecutionEngine` -- runs any list of independent configs
  (*work units*: rate-point x seed cells, scenario cells, replicate
  batches) across a process pool with deterministic result ordering and
  chunked scheduling; ``workers=1`` degrades to a plain in-process loop,
  so results are byte-identical for every worker count.
* :class:`ReplicatedSummary` -- per-metric mean / stddev / t-based 95%
  CI over replicates, aggregated per-class breakdowns, and the per-seed
  :class:`~repro.sim.records.RunSummary` rows retained for drill-down.

Determinism contract: for a fixed ``(config, replicates)`` the seed
list, the execution order of the aggregation arithmetic, and therefore
``ReplicatedSummary.to_dict()`` are all independent of ``workers`` --
``json.dumps`` of the result is byte-identical for ``workers=1`` and
``workers=N`` (gated nightly in CI).

>>> from repro.sim.replication import run_replicated
>>> from repro.sim.session import RunConfig
>>> from repro.traffic.workload import WorkloadSpec
>>> spec = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.0,
...                     rate=0.02, cycles=800, warmup=200, seed=3)
>>> rs = run_replicated(RunConfig(spec=spec), replicates=4)
>>> rs.replicates, len(rs.runs)
(4, 4)
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass, field, replace
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.sim.records import RunSummary
from repro.sim.rng import derive_seed
from repro.sim.session import RunConfig
from repro.sim.stats import aggregate_values

__all__ = ["ReplicationPlan", "ExecutionEngine", "MetricStats",
           "ReplicatedSummary", "run_replicated", "REPLICATED_METRICS"]

#: scalar RunSummary fields aggregated across replicates
REPLICATED_METRICS = ("unicast_mean", "bcast_mean", "bcast_delivery_mean",
                      "accepted_rate", "generated_msgs", "delivered_msgs",
                      "flits_moved", "in_flight_at_end",
                      "unicast_samples", "bcast_samples")

#: scenario-identity keys copied from the replicate summaries' ``extra``
#: (identical across seeds by construction; per-seed measurements such
#: as ``relay_segments`` stay in the retained per-seed rows)
_SCENARIO_EXTRA_KEYS = ("pattern", "arrival", "workload")


# ----------------------------------------------------------------------
# Seed spawning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicationPlan:
    """R replicate seeds spawned from one root seed.

    Child seed r is ``derive_seed(root_seed, f"replicate:{r}")`` --
    SeedSequence-style spawning on the repo's own BLAKE2b derivation.
    The ``replicate:`` namespace is disjoint from every in-run stream
    name (``node{i}.{class}.arrivals`` etc.), so spawning replicates
    neither collides with nor reorders the single-run draw sequence;
    seed lists are prefix-stable (``plan(R).seeds()[:k] ==
    plan(k).seeds()``), so growing R refines, never reshuffles, an
    existing replicate set.
    """

    root_seed: int
    replicates: int

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError(
                f"replicates must be >= 1 (got {self.replicates})")

    def seeds(self) -> List[int]:
        """The replicate seeds, in replicate order."""
        return [derive_seed(self.root_seed, f"replicate:{r}")
                for r in range(self.replicates)]

    def configs(self, config: RunConfig) -> List[RunConfig]:
        """``config`` re-seeded once per replicate, in replicate order."""
        return [replace(config, spec=replace(config.spec, seed=s))
                for s in self.seeds()]


# ----------------------------------------------------------------------
# Sharded execution
# ----------------------------------------------------------------------
def _execute(config: RunConfig) -> RunSummary:
    """Top-level work-unit runner (must be picklable for the pool)."""
    from repro.sim.session import SimulationSession
    return SimulationSession(config).run()


class ExecutionEngine:
    """Runs independent :class:`RunConfig` work units, optionally
    sharded across a process pool.

    The unit of work is *one config* -- a (rate point x seed) cell, a
    scenario-grid cell, or a replicate -- so callers flatten whatever
    grid they sweep into a config list and get results back **in
    submission order** regardless of which worker finished first
    (``imap`` semantics).  That ordering is what makes every consumer
    (replicated summaries, sweep early-stopping, CSV emission)
    byte-identical across worker counts.

    ``workers=1`` (or a single unit) runs in-process with no pool, no
    pickling and no subprocess imports -- the graceful fallback small
    runs and tests rely on.  Larger runs are *chunked*: several cells
    ride one IPC round trip, sized at roughly four chunks per worker to
    balance scheduling overhead against tail latency.

    ``progress`` is an optional ``callback(done, total)`` fired in the
    *consumer* process each time a work unit completes (in submission
    order) -- the seam the live sweep heartbeat
    (:func:`repro.obs.progress.cell_progress`) plugs into.  It observes
    execution, never steers it, so it cannot perturb results.
    """

    def __init__(self, workers: int = 1,
                 progress: Optional[Callable[[int, int], None]] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        self.workers = workers
        self.progress = progress

    def imap(self, configs: Iterable[RunConfig]
             ) -> Iterator[RunSummary]:
        """Yield summaries lazily, in submission order.

        Closing the iterator early (``break`` + ``.close()``, or
        garbage collection) terminates the pool, abandoning any cells
        still simulating -- sweep early-stopping uses this to drop
        past-knee points.
        """
        jobs = list(configs)
        total = len(jobs)
        done = 0
        if self.workers == 1 or total <= 1:
            for config in jobs:
                summary = _execute(config)
                done += 1
                if self.progress is not None:
                    self.progress(done, total)
                yield summary
            return
        # ~4 chunks per worker: few IPC round trips, a short tail
        chunk = max(1, total // (self.workers * 4))
        # exiting the `with` (incl. via GeneratorExit) terminates the
        # pool, discarding undelivered results
        with multiprocessing.Pool(min(self.workers, total)) as pool:
            for summary in pool.imap(_execute, jobs, chunksize=chunk):
                done += 1
                if self.progress is not None:
                    self.progress(done, total)
                yield summary

    def run(self, configs: Iterable[RunConfig]) -> List[RunSummary]:
        """All summaries, in submission order."""
        return list(self.imap(configs))


# ----------------------------------------------------------------------
# Cross-replicate aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricStats:
    """Mean / spread / 95% CI of one metric across replicates."""

    mean: float
    stddev: float
    ci95: Optional[Tuple[float, float]]
    n: int

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "MetricStats":
        agg = aggregate_values(list(values))
        ci = agg["ci95"]
        return cls(mean=agg["mean"], stddev=agg["stddev"],
                   ci95=tuple(ci) if ci is not None else None,
                   n=agg["n"])

    @property
    def ci_half_width(self) -> float:
        """Half-width of the 95% CI (0.0 when undefined)."""
        if self.ci95 is None:
            return 0.0
        return (self.ci95[1] - self.ci95[0]) / 2.0

    def to_dict(self) -> Dict[str, object]:
        return {"mean": self.mean, "stddev": self.stddev,
                "ci95": list(self.ci95) if self.ci95 else None,
                "n": self.n}


@dataclass
class ReplicatedSummary:
    """Aggregate of R independent replicates of one simulation point.

    Scalar metrics become :class:`MetricStats` (``metrics`` /
    :meth:`metric`); per-class breakdowns are aggregated with
    :func:`repro.core.collector.aggregate_class_blocks`; the individual
    per-seed :class:`RunSummary` rows stay available in ``runs`` for
    drill-down.  A point counts as ``saturated`` when at least half of
    its replicates saturated -- the majority vote keeps sweep
    early-stopping deterministic and robust to one unlucky seed.
    """

    noc: str
    n: int
    msg_len: int
    bcast_frac: float
    offered_rate: float
    cycles: int
    warmup: int
    root_seed: int
    seeds: Tuple[int, ...]
    metrics: Dict[str, MetricStats]
    classes: Dict[str, Dict[str, object]]
    saturated_frac: float
    runs: List[RunSummary] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_runs(cls, spec, runs: Sequence[RunSummary],
                  plan: ReplicationPlan) -> "ReplicatedSummary":
        """Aggregate ``runs`` (one per plan seed, in replicate order).

        ``spec`` is the *root* :class:`~repro.traffic.workload.
        WorkloadSpec` -- the identity of the point; the replicate specs
        differ from it only in their seed.
        """
        if len(runs) != plan.replicates:
            raise ValueError(
                f"expected {plan.replicates} replicate runs, "
                f"got {len(runs)}")
        from repro.core.collector import aggregate_class_blocks
        metrics = {
            name: MetricStats.from_values(
                getattr(r, name) for r in runs)
            for name in REPLICATED_METRICS}
        blocks = [r.extra["classes"] for r in runs
                  if "classes" in r.extra]
        extra = {k: runs[0].extra[k] for k in _SCENARIO_EXTRA_KEYS
                 if k in runs[0].extra}
        return cls(
            noc=spec.kind, n=spec.n, msg_len=spec.msg_len,
            bcast_frac=spec.beta, offered_rate=spec.rate,
            cycles=spec.cycles, warmup=spec.warmup,
            root_seed=plan.root_seed, seeds=tuple(plan.seeds()),
            metrics=metrics,
            classes=aggregate_class_blocks(blocks) if blocks else {},
            saturated_frac=sum(1 for r in runs if r.saturated)
            / len(runs),
            runs=list(runs), extra=extra)

    # -- RunSummary-compatible surface ---------------------------------
    @property
    def replicates(self) -> int:
        return len(self.seeds)

    @property
    def saturated(self) -> bool:
        return self.saturated_frac >= 0.5

    @property
    def unicast_mean(self) -> float:
        return self.metrics["unicast_mean"].mean

    @property
    def bcast_mean(self) -> float:
        return self.metrics["bcast_mean"].mean

    def metric(self, name: str) -> MetricStats:
        return self.metrics[name]

    def row(self) -> Dict[str, object]:
        """Flat dict for CSV emission: the single-run columns (means)
        plus ``*_ci95`` half-width and replicate-count columns."""
        uni = self.metrics["unicast_mean"]
        bc = self.metrics["bcast_mean"]
        return {
            "noc": self.noc,
            "N": self.n,
            "M": self.msg_len,
            "beta": self.bcast_frac,
            "rate": self.offered_rate,
            "unicast_lat": round(uni.mean, 2),
            "unicast_ci95": round(uni.ci_half_width, 2),
            "bcast_lat": round(bc.mean, 2),
            "bcast_ci95": round(bc.ci_half_width, 2),
            "accepted": round(self.metrics["accepted_rate"].mean, 5),
            "unicast_n": round(self.metrics["unicast_samples"].mean, 1),
            "bcast_n": round(self.metrics["bcast_samples"].mean, 1),
            "replicates": self.replicates,
            # same 0/1 contract as RunSummary.row() (consumers filter
            # on truthiness); the exact fraction rides alongside
            "saturated": int(self.saturated),
            "saturated_frac": round(self.saturated_frac, 3),
        }

    def class_rows(self) -> list:
        """Flat per-class rows (means with CI half-widths), mirroring
        :meth:`RunSummary.class_rows` for the CLI/CSV tables."""
        rows = []
        for name, info in self.classes.items():
            lat = info.get("latency_mean", {})
            ci = lat.get("ci95")
            rows.append({
                "noc": self.noc,
                "class": name,
                "cast": info.get("cast", "?"),
                "M": info.get("msg_len", ""),
                "rate": info.get("rate", ""),
                "generated": round(info["generated"]["mean"], 1),
                "delivered": round(info["delivered"]["mean"], 1),
                "latency": round(float(lat.get("mean", 0.0)), 2),
                "latency_ci95": (round((ci[1] - ci[0]) / 2.0, 2)
                                 if ci else 0.0),
                "completed": (round(info["completed"]["mean"], 1)
                              if "completed" in info else ""),
                "completion": (round(
                    float(info["completion_mean"]["mean"]), 2)
                    if "completion_mean" in info else ""),
                "replicates": self.replicates,
            })
        return rows

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form -- full precision, every per-seed
        row included.  ``json.dumps(rs.to_dict(), sort_keys=True)`` is
        the byte-identity surface the determinism gate compares."""
        return {
            "format": "repro-replicated/v1",
            "noc": self.noc, "n": self.n, "msg_len": self.msg_len,
            "bcast_frac": self.bcast_frac,
            "offered_rate": self.offered_rate,
            "cycles": self.cycles, "warmup": self.warmup,
            "root_seed": self.root_seed,
            "replicates": self.replicates,
            "seeds": list(self.seeds),
            "saturated_frac": self.saturated_frac,
            "metrics": {k: v.to_dict()
                        for k, v in self.metrics.items()},
            "classes": self.classes,
            "extra": self.extra,
            "runs": [asdict(r) for r in self.runs],
        }


def run_replicated(config: RunConfig, replicates: int,
                   workers: int = 1,
                   engine: Optional[ExecutionEngine] = None
                   ) -> ReplicatedSummary:
    """Run ``config`` at ``replicates`` spawned seeds and aggregate.

    ``workers`` shards the replicates across a process pool (ignored
    when ``engine`` is supplied); results are byte-identical for every
    worker count.
    """
    plan = ReplicationPlan(config.spec.seed, replicates)
    engine = engine if engine is not None else ExecutionEngine(workers)
    runs = engine.run(plan.configs(config))
    return ReplicatedSummary.from_runs(config.spec, runs, plan)
