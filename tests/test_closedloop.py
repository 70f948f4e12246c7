"""Closed-loop application engine: sources, spatial model, workloads,
engine feedback, axis validation and backend equivalence.

The open-loop golden fixtures pin that ``window=0`` (the default) stays
byte-identical; this module covers the closed half: reactive sources
that stall on their in-flight window, the directory request/reply round
trip, barrier-synchronised phases, the completion-time accounting in
``summary.extra["classes"]`` -- and the contract that every backend
(reference / array, C kernel on and off) produces identical
bytes for all of it.
"""

import random

import pytest

from repro.core.collector import aggregate_class_blocks
from repro.sim.backend import BACKENDS
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.generators import DirectoryPattern
from repro.traffic.mix import TrafficClass, TrafficMix
from repro.traffic.workload import WorkloadSpec
from repro.workloads import resolve_workload
from repro.workloads.closedloop import (ClosedLoopClass, ClosedLoopSource,
                                        ClosedLoopWorkload)

ALL_BACKENDS = sorted(BACKENDS)

COHERENCE_CLOSED = "cache_coherence:storms=true,window=4"
ALLREDUCE_CLOSED = "allreduce:window=3,quota=8,gap=32"


def closed_spec(workload=COHERENCE_CLOSED, kind="quarc", **kw):
    base = dict(kind=kind, n=16, msg_len=4, beta=0.0, rate=1.0,
                cycles=2000, warmup=400, seed=9, workload=workload)
    base.update(kw)
    return WorkloadSpec.parse(**base)


def run_one(spec, backend="reference", **cfg):
    session = SimulationSession(RunConfig(spec=spec, backend=backend,
                                          **cfg))
    summary = session.run()
    session.backend.detach()
    return summary


# ----------------------------------------------------------------------
# the reactive source
# ----------------------------------------------------------------------
class TestClosedLoopSource:
    def test_window_stalls_without_consuming_draws(self):
        rng = random.Random(3)
        src = ClosedLoopSource(0.5, rng, window=2)
        fired = 0
        while fired < 2:
            fired += src.fires()
        state = rng.getstate()
        # window full: no fires, and crucially no rng consumption
        assert not src.fires() and not src.fires()
        assert rng.getstate() == state
        src.outstanding -= 1            # a completion returns a credit
        assert any(src.fires() for _ in range(200))

    def test_rate_one_fires_every_free_slot_without_draws(self):
        rng = random.Random(3)
        state = rng.getstate()
        src = ClosedLoopSource(1.0, rng, window=4)
        assert all(src.fires() for _ in range(4))
        assert not src.fires()
        assert rng.getstate() == state

    def test_quota_limits_issues_per_phase(self):
        src = ClosedLoopSource(1.0, random.Random(1), window=8)
        src.quota_left = 3
        assert sum(src.fires() for _ in range(10)) == 3
        src.outstanding = 0
        assert not src.fires()          # quota spent, credits irrelevant

    def test_arrivals_in_raises(self):
        src = ClosedLoopSource(0.2, random.Random(1), window=2)
        with pytest.raises(RuntimeError, match="reactive"):
            src.arrivals_in(0, 100)

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            ClosedLoopSource(0.2, random.Random(1), window=0)
        with pytest.raises(ValueError, match="rate"):
            ClosedLoopSource(1.5, random.Random(1))


# ----------------------------------------------------------------------
# the directory-home spatial model
# ----------------------------------------------------------------------
class TestDirectoryPattern:
    def test_local_one_stays_in_own_quadrant(self):
        pat = DirectoryPattern(16, quadrants=4, local=1.0)
        rng = random.Random(5)
        for src in (0, 5, 10, 15):
            quad = src // 4
            for _ in range(50):
                d = pat.pick(src, rng)
                assert d // 4 == quad and d != src

    def test_local_zero_always_remote(self):
        pat = DirectoryPattern(16, quadrants=4, local=0.0)
        rng = random.Random(5)
        for src in (0, 7, 12):
            quad = src // 4
            for _ in range(50):
                assert pat.pick(src, rng) // 4 != quad

    def test_never_self_and_in_range(self):
        pat = DirectoryPattern(12, quadrants=3, local=0.5)
        rng = random.Random(5)
        for src in range(12):
            for _ in range(40):
                d = pat.pick(src, rng)
                assert 0 <= d < 12 and d != src

    def test_local_fraction_tracks_probability(self):
        pat = DirectoryPattern(16, quadrants=4, local=0.7)
        rng = random.Random(11)
        hits = sum((pat.pick(5, rng) // 4 == 1) for _ in range(4000))
        assert 0.64 < hits / 4000 < 0.76

    def test_deterministic_for_a_seed(self):
        a = [DirectoryPattern(16, local=0.5).pick(2, random.Random(42))
             for _ in range(5)]
        b = [DirectoryPattern(16, local=0.5).pick(2, random.Random(42))
             for _ in range(5)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            DirectoryPattern(8, quadrants=0)
        with pytest.raises(ValueError):
            DirectoryPattern(8, quadrants=9)
        with pytest.raises(ValueError):
            DirectoryPattern(8, local=1.5)


# ----------------------------------------------------------------------
# workload builders + declarations
# ----------------------------------------------------------------------
class TestClosedLoopWorkloads:
    def test_window_zero_builds_open_loop_lists(self):
        for spec in ("cache_coherence:storms=true", "allreduce"):
            built = resolve_workload(spec, 16)
            assert isinstance(built, list)
            assert all(isinstance(c, TrafficClass) for c in built)

    def test_window_engages_closed_loop(self):
        built = resolve_workload(COHERENCE_CLOSED, 16)
        assert isinstance(built, ClosedLoopWorkload)
        assert [cl.name for cl in built.closed] == ["fill"]
        assert built.closed[0].mode == "reqreply"
        fill = built.classes[0]
        assert fill.arrival == "closedloop:window=4"
        assert fill.pattern.startswith("directory:")
        ar = resolve_workload(ALLREDUCE_CLOSED, 16)
        assert isinstance(ar, ClosedLoopWorkload)
        assert ar.barrier == "barrier" and ar.gap == 32
        assert all(cl.quota == 8 for cl in ar.closed)

    def test_scaled_clamps_think_rate(self):
        wl = resolve_workload(ALLREDUCE_CLOSED, 16).scaled(2.0)
        assert all(c.rate <= 1.0 for c in wl.classes)

    def test_declaration_validation(self):
        closed_cls = TrafficClass("a", rate=0.5, msg_len=4,
                                  arrival="closedloop:window=2")
        with pytest.raises(ValueError, match="closedloop"):
            ClosedLoopWorkload(
                classes=(TrafficClass("a", rate=0.5, msg_len=4),),
                closed=(ClosedLoopClass("a"),))
        with pytest.raises(ValueError, match="unicast"):
            ClosedLoopWorkload(
                classes=(TrafficClass("a", rate=0.5, msg_len=4,
                                      arrival="closedloop:window=2",
                                      cast="broadcast"),),
                closed=(ClosedLoopClass("a"),))
        with pytest.raises(ValueError, match="no matching"):
            ClosedLoopWorkload(classes=(closed_cls,),
                               closed=(ClosedLoopClass("b"),))
        with pytest.raises(ValueError, match="broadcast"):
            ClosedLoopWorkload(classes=(closed_cls,),
                               closed=(ClosedLoopClass("a"),),
                               barrier="a")
        with pytest.raises(ValueError, match="phased"):
            ClosedLoopWorkload(
                classes=(closed_cls,
                         TrafficClass("bar", rate=0.0, msg_len=2,
                                      cast="broadcast")),
                closed=(ClosedLoopClass("a"),),
                barrier="bar")
        with pytest.raises(ValueError, match="mode"):
            ClosedLoopClass("a", mode="openloop")


# ----------------------------------------------------------------------
# engine semantics end to end
# ----------------------------------------------------------------------
class TestEngineSemantics:
    def test_coherence_completions_and_window(self):
        spec = closed_spec(COHERENCE_CLOSED)
        session = SimulationSession(RunConfig(spec=spec,
                                              backend="reference"))
        summary = session.run()
        eng = session._closedloop
        assert eng is not None
        fill = summary.extra["classes"]["fill"]
        # completions happened and a round trip costs more than one leg
        assert fill["completed"] > 0
        assert fill["completion_samples"] > 0
        assert fill["completion_mean"] > fill["latency_mean"]
        # a transaction = request + reply: deliveries outnumber
        # completions roughly 2:1
        assert fill["delivered"] >= 2 * fill["completed"]
        # the open-loop broadcast class rides along without completion
        # keys (its block keeps the open-loop shape)
        inv = summary.extra["classes"]["inv"]
        assert "completed" not in inv
        # the window invariant held all run: whatever is still
        # outstanding is bounded by each source's budget
        for srcs in eng.sources.values():
            assert all(0 <= s.outstanding <= s.window for s in srcs)
        session.backend.detach()

    def test_allreduce_phases_and_barrier(self):
        spec = closed_spec(ALLREDUCE_CLOSED, kind="spidergon",
                           cycles=3000, warmup=600)
        session = SimulationSession(RunConfig(spec=spec,
                                              backend="reference"))
        summary = session.run()
        eng = session._closedloop
        assert eng.phases_done > 0
        classes = summary.extra["classes"]
        bar = classes["barrier"]
        # one barrier broadcast per finished phase, engine-injected
        assert bar["generated"] == eng.phases_done \
            or bar["generated"] == eng.phases_done + 1  # one in flight
        # barrier completion time = phase duration >> barrier latency
        assert bar["completion_mean"] > bar["latency_mean"]
        # phased quota: per phase each node sends `quota` chunks per
        # direction, so generation counts are quota-granular
        assert classes["scatter"]["generated"] == \
            classes["gather"]["generated"]
        assert classes["scatter"]["completed"] > 0
        session.backend.detach()

    def test_closed_loop_throttles_vs_open(self):
        """The whole point: under identical think rates the closed
        variant injects less than an unthrottled open-loop source
        would, because sources stall on their windows."""
        closed = run_one(closed_spec(
            "cache_coherence:window=2,read_rate=0.2,service=16"))
        open_ = run_one(closed_spec("cache_coherence:read_rate=0.2"))
        assert closed.extra["classes"]["fill"]["generated"] < \
            open_.extra["classes"]["fill"]["generated"]

    def test_warmup_filters_completion_samples(self):
        spec = closed_spec(COHERENCE_CLOSED)
        hot = run_one(spec)
        cold = run_one(WorkloadSpec.parse(
            **{**spec.to_dict(), "warmup": 1}))
        assert cold.extra["classes"]["fill"]["completion_samples"] > \
            hot.extra["classes"]["fill"]["completion_samples"]


# ----------------------------------------------------------------------
# axis validation + fast-forward guards
# ----------------------------------------------------------------------
class TestAxisValidation:
    def test_closed_loop_rejects_trace_replay(self):
        spec = closed_spec(arrival="trace:path=/nonexistent.jsonl")
        with pytest.raises(ValueError, match="trace"):
            SimulationSession(RunConfig(spec=spec))

    def test_closed_loop_rejects_sharding(self):
        spec = closed_spec()
        with pytest.raises(ValueError, match="shard"):
            SimulationSession(RunConfig(spec=spec, backend="array",
                                        shard_workers=2))

    def test_closed_loop_rejects_faults(self):
        spec = closed_spec(faults="links:down=1@cycle=100")
        with pytest.raises(ValueError, match="fault"):
            SimulationSession(RunConfig(spec=spec))

    def test_bare_closedloop_arrival_rejected(self):
        spec = WorkloadSpec.parse(
            kind="quarc", n=8, msg_len=4, beta=0.0, rate=0.05,
            cycles=500, warmup=100, seed=1,
            arrival="closedloop:window=2")
        with pytest.raises(ValueError, match="workload"):
            SimulationSession(RunConfig(spec=spec))

    def test_reactive_mix_cannot_fast_forward(self):
        from repro.core.api import build_network
        net, _ = build_network("quarc", 8)
        backend = BACKENDS["array"](net)
        mix = TrafficMix(
            net, classes=[TrafficClass("c", rate=0.2, msg_len=2,
                                       arrival="closedloop:window=2")])
        assert mix.reactive
        with pytest.raises(RuntimeError, match="precompute"):
            mix.precompute_arrivals(0, 100)
        with pytest.raises(RuntimeError, match="engine"):
            mix.generate(0)     # reactive with no engine attached
        backend.detach()


# ----------------------------------------------------------------------
# the spec entrypoint
# ----------------------------------------------------------------------
class TestWorkloadSpecParse:
    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="workloda"):
            WorkloadSpec.parse(kind="quarc", n=8, msg_len=4, beta=0.0,
                               rate=0.01, workloda="allreduce")

    def test_none_means_default_and_strings_are_stripped(self):
        spec = WorkloadSpec.parse(kind=" quarc ", n=8, msg_len=4,
                                  beta=0.0, rate=0.01, pattern=None,
                                  arrival=None, workload=None,
                                  faults=None, cycles=None)
        assert spec.kind == "quarc"
        assert spec.pattern == "uniform" and spec.arrival == "bernoulli"
        assert spec.workload == "" and spec.cycles == 12_000

    def test_still_validates_scenarios(self):
        with pytest.raises(Exception):
            WorkloadSpec.parse(kind="quarc", n=8, msg_len=4, beta=0.0,
                               rate=0.01, pattern="no-such-pattern")


# ----------------------------------------------------------------------
# replicate aggregation of completion keys
# ----------------------------------------------------------------------
class TestAggregation:
    def test_completion_keys_aggregate(self):
        blocks = []
        for seed in (9, 10):
            s = run_one(closed_spec(seed=seed, cycles=1200, warmup=300))
            blocks.append(s.extra["classes"])
        agg = aggregate_class_blocks(blocks)
        fill = agg["fill"]
        assert fill["completed"]["n"] == 2
        assert fill["completion_mean"]["mean"] > 0
        # the open broadcast class has no completion keys -- absent,
        # not zero-filled
        assert "completed" not in agg["inv"]


# ----------------------------------------------------------------------
# backend equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
class TestClosedLoopEquivalence:
    @pytest.mark.parametrize("workload", [COHERENCE_CLOSED,
                                          ALLREDUCE_CLOSED])
    @pytest.mark.parametrize("kind", ["quarc", "spidergon"])
    def test_backends_byte_identical(self, workload, kind):
        from differential import assert_backends_equivalent
        spec = closed_spec(workload, kind=kind, cycles=1500, warmup=300)
        summaries = assert_backends_equivalent(
            RunConfig(spec=spec), ALL_BACKENDS)
        closed_names = [cl.name for cl
                        in resolve_workload(workload, 16).closed]
        for name in closed_names:
            assert summaries[0].extra["classes"][name]["completed"] > 0

    def test_array_kernel_off_matches(self, monkeypatch):
        spec = closed_spec(cycles=1500, warmup=300)
        baseline = run_one(spec, backend="reference")
        for env in ("1", "0"):
            monkeypatch.setenv("REPRO_ARRAY_CKERNEL", env)
            assert run_one(spec, backend="array") == baseline
