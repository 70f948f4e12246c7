"""Tests for the multi-seed replication layer: seed spawning, the
sharded execution engine, cross-replicate aggregation, determinism
across worker counts, and seed-stream independence from the single-run
draws the golden fixtures pin."""

import json

import pytest

from repro.core.collector import aggregate_class_blocks, aggregate_values
from repro.experiments.latency import run_point
from repro.experiments.sweep import (compare_networks, sweep_rates,
                                     sweep_scenarios)
from repro.sim.replication import (ExecutionEngine, MetricStats,
                                   ReplicatedSummary, ReplicationPlan,
                                   run_replicated)
from repro.sim.rng import derive_seed
from repro.sim.session import RunConfig, SimulationSession
from repro.sim.stats import describe, mean_ci95, t_critical_95
from repro.traffic.workload import WorkloadSpec

SPEC = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.1,
                    rate=0.02, cycles=1200, warmup=300, seed=3)
CONFIG = RunConfig(spec=SPEC, backend="array")


def dumps(rs: ReplicatedSummary) -> str:
    return json.dumps(rs.to_dict(), sort_keys=True)


class TestReplicationPlan:
    def test_seed_count_and_determinism(self):
        plan = ReplicationPlan(root_seed=3, replicates=5)
        seeds = plan.seeds()
        assert len(seeds) == 5
        assert seeds == ReplicationPlan(3, 5).seeds()

    def test_seeds_distinct_and_differ_from_root(self):
        seeds = ReplicationPlan(3, 64).seeds()
        assert len(set(seeds)) == 64
        assert 3 not in seeds

    def test_prefix_stability(self):
        """Growing R refines the replicate set, never reshuffles it."""
        assert ReplicationPlan(9, 16).seeds()[:4] == \
            ReplicationPlan(9, 4).seeds()

    def test_different_roots_give_different_seed_lists(self):
        assert ReplicationPlan(1, 4).seeds() != ReplicationPlan(2, 4).seeds()

    def test_rejects_bad_replicates(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="replicates"):
                ReplicationPlan(1, bad)

    def test_configs_change_only_the_seed(self):
        configs = ReplicationPlan(SPEC.seed, 3).configs(CONFIG)
        assert [c.spec.seed for c in configs] == \
            ReplicationPlan(SPEC.seed, 3).seeds()
        for c in configs:
            assert c.backend == "array"
            assert c.spec.with_rate(SPEC.rate).kind == SPEC.kind
            assert (c.spec.rate, c.spec.cycles) == (SPEC.rate, SPEC.cycles)


class TestSeedStreamIndependence:
    """Spawned replicate seeds must not collide with or perturb the
    single-run stream seeds pinned by the golden fixtures."""

    def test_replicate_namespace_disjoint_from_stream_names(self):
        root = 1
        stream_seeds = {derive_seed(root, f"node{i}.{suffix}")
                        for i in range(64)
                        for suffix in ("arrivals", "dst", "bcast",
                                       "cls.arrivals", "cls.dst")}
        replicate_seeds = set(ReplicationPlan(root, 64).seeds())
        assert not stream_seeds & replicate_seeds

    def test_single_run_unchanged_by_replication(self):
        """run_point draws the same streams before and after a
        replicated run -- replication cannot perturb global state."""
        before = run_point(SPEC)
        run_replicated(RunConfig(spec=SPEC), replicates=3)
        after = run_point(SPEC)
        assert before == after

    def test_replicates_actually_vary(self):
        rs = run_replicated(CONFIG, replicates=4)
        root = run_point(SPEC, backend="array")
        assert all(r.seed != SPEC.seed for r in rs.runs)
        assert any(r != root for r in rs.runs)
        assert rs.metric("unicast_mean").stddev > 0.0


class TestExecutionEngine:
    def test_rejects_bad_workers(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                ExecutionEngine(workers=bad)

    def test_single_worker_matches_pool(self):
        configs = ReplicationPlan(SPEC.seed, 4).configs(CONFIG)
        assert ExecutionEngine(1).run(configs) == \
            ExecutionEngine(3).run(configs)

    def test_results_in_submission_order(self):
        rates = [0.01, 0.02, 0.03, 0.04]
        configs = [RunConfig(spec=SPEC.with_rate(r)) for r in rates]
        out = ExecutionEngine(2).run(configs)
        assert [s.offered_rate for s in out] == rates

    def test_imap_is_lazy_and_closable(self):
        configs = ReplicationPlan(SPEC.seed, 6).configs(CONFIG)
        it = ExecutionEngine(2).imap(configs)
        first = next(it)
        it.close()          # terminates the pool without draining it
        assert first == ExecutionEngine(1).run(configs[:1])[0]


class TestAggregation:
    def test_metric_stats_matches_hand_computation(self):
        ms = MetricStats.from_values([1.0, 2.0, 3.0])
        assert ms.mean == pytest.approx(2.0)
        assert ms.stddev == pytest.approx(1.0)
        assert ms.n == 3
        half = t_critical_95(2) * 1.0 / (3 ** 0.5)
        assert ms.ci_half_width == pytest.approx(half)
        assert ms.ci95 == (pytest.approx(2.0 - half),
                           pytest.approx(2.0 + half))

    def test_single_value_has_no_ci(self):
        ms = MetricStats.from_values([5.0])
        assert ms.ci95 is None and ms.ci_half_width == 0.0

    def test_aggregate_values_dict_form(self):
        agg = aggregate_values([2.0, 4.0])
        assert agg["mean"] == pytest.approx(3.0)
        assert agg["n"] == 2
        assert agg["ci95"] is not None
        stats = describe([2.0, 4.0])
        assert tuple(agg["ci95"]) == mean_ci95(stats)

    def test_aggregate_class_blocks(self):
        blocks = [
            {"inv": {"cast": "broadcast", "msg_len": 2, "rate": 0.002,
                     "generated": 10, "delivered": 9,
                     "latency_mean": 5.0, "samples": 9}},
            {"inv": {"cast": "broadcast", "msg_len": 2, "rate": 0.002,
                     "generated": 14, "delivered": 13,
                     "latency_mean": 7.0, "samples": 13}},
        ]
        agg = aggregate_class_blocks(blocks)
        assert agg["inv"]["cast"] == "broadcast"
        assert agg["inv"]["generated"]["mean"] == pytest.approx(12.0)
        assert agg["inv"]["latency_mean"]["mean"] == pytest.approx(6.0)
        assert agg["inv"]["latency_mean"]["n"] == 2

    def test_from_runs_rejects_wrong_count(self):
        plan = ReplicationPlan(SPEC.seed, 3)
        runs = ExecutionEngine(1).run(plan.configs(CONFIG)[:2])
        with pytest.raises(ValueError, match="replicate runs"):
            ReplicatedSummary.from_runs(SPEC, runs, plan)

    def test_replicated_summary_shape(self):
        rs = run_replicated(CONFIG, replicates=4)
        assert (rs.noc, rs.n, rs.root_seed) == ("quarc", 8, SPEC.seed)
        assert rs.replicates == 4 and len(rs.runs) == 4
        mean = sum(r.unicast_mean for r in rs.runs) / 4
        assert rs.metric("unicast_mean").mean == pytest.approx(mean)
        row = rs.row()
        assert row["replicates"] == 4
        assert row["unicast_ci95"] >= 0.0
        assert 0.0 <= rs.saturated_frac <= 1.0

    def test_multiclass_breakdown_aggregated(self):
        spec = WorkloadSpec(kind="quarc", n=8, msg_len=8, beta=0.0,
                            rate=1.0, cycles=1200, warmup=300, seed=3,
                            workload="cache_coherence")
        rs = run_replicated(RunConfig(spec=spec), replicates=3)
        assert set(rs.classes) == {"fill", "inv"}
        assert rs.classes["fill"]["latency_mean"]["n"] == 3
        rows = rs.class_rows()
        assert {r["class"] for r in rows} == {"fill", "inv"}
        assert all(r["replicates"] == 3 for r in rows)
        assert rs.extra["workload"] == "cache_coherence"


class TestWorkerDeterminism:
    """The tier-1 version of the nightly byte-identity gate."""

    def test_run_replicated_byte_identical_across_workers(self):
        serial = run_replicated(CONFIG, replicates=4, workers=1)
        sharded = run_replicated(CONFIG, replicates=4, workers=2)
        assert dumps(serial) == dumps(sharded)

    def test_session_method_matches_module_function(self):
        session = SimulationSession(CONFIG)
        assert dumps(session.run_replicated(3)) == \
            dumps(run_replicated(CONFIG, 3))


class TestReplicatedSweeps:
    RATES = [0.01, 0.03]

    def test_sweep_rates_returns_aggregates(self):
        out = sweep_rates(SPEC, self.RATES, replicates=3)
        assert [type(s) for s in out] == [ReplicatedSummary] * 2
        assert [s.offered_rate for s in out] == self.RATES
        # common random numbers: same spawned seed list at every rate
        assert out[0].seeds == out[1].seeds

    def test_sweep_rates_workers_byte_identical(self):
        serial = sweep_rates(SPEC, self.RATES, replicates=3)
        sharded = sweep_rates(SPEC, self.RATES, replicates=3, workers=3)
        assert [dumps(s) for s in serial] == [dumps(s) for s in sharded]

    def test_single_replicate_keeps_runsummary_shape(self):
        out = sweep_rates(SPEC, self.RATES)
        assert all(not isinstance(s, ReplicatedSummary) for s in out)
        assert out == sweep_rates(SPEC, self.RATES, workers=2)

    def test_early_stop_on_majority_saturated(self):
        spec = WorkloadSpec(kind="spidergon", n=8, msg_len=16, beta=0.0,
                            rate=0.0, cycles=2500, warmup=500, seed=1)
        rates = [0.3, 0.4, 0.5, 0.6, 0.7]
        out = sweep_rates(spec, rates, replicates=2, workers=2)
        assert len(out) == 2
        assert all(s.saturated for s in out)
        assert out[-1].saturated_frac >= 0.5

    def test_compare_networks_passes_replicates(self):
        res = compare_networks(8, 4, 0.0, rates=[0.02], cycles=1200,
                               warmup=300, seed=9, replicates=2)
        for summaries in res.values():
            assert summaries[0].replicates == 2
        # both kinds see the same spawned seed list (paired replicates)
        assert res["quarc"][0].seeds == res["spidergon"][0].seeds

    def test_sweep_scenarios_replicated_grid(self):
        base = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.0,
                            rate=0.02, cycles=1000, warmup=250, seed=6)
        serial = sweep_scenarios(base, patterns=["uniform", "neighbour"],
                                 kinds=["quarc", "spidergon"],
                                 replicates=2)
        sharded = sweep_scenarios(base, patterns=["uniform", "neighbour"],
                                  kinds=["quarc", "spidergon"],
                                  replicates=2, workers=4)
        assert len(serial) == 4
        assert [dumps(s) for s in serial] == [dumps(s) for s in sharded]
        assert [(s.noc, s.extra["pattern"]) for s in serial] == \
            [(k, p) for k in ("quarc", "spidergon")
             for p in ("uniform", "neighbour")]
