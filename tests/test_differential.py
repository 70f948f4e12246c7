"""Differential fuzz tests: every backend, randomized configurations.

The hand-picked equivalence matrices (``test_backends.py``,
``test_workloads.py``) pin known-tricky corners; this module adds bulk
randomized coverage through ``tests/differential.py``: configurations
sampled across topology x size x pattern x arrival x rate x seed are run
through **every registered backend** and must produce identical
summaries.  On failure the harness re-runs the offending pair in
lockstep and reports the first diverging cycle with a full router/port
state diff -- so a fuzz failure arrives pre-localised.

The default run keeps CI fast (a modest config count); ``--runslow``
unlocks the nightly-sized sweep (more configs, longer horizons, bigger
networks).
"""

import pytest

from differential import (Divergence, assert_backends_equivalent,
                          find_divergence, make_config, random_configs,
                          run_summaries, targeted_configs)
from repro.sim.backend import BACKENDS

ALL_BACKENDS = sorted(BACKENDS)

#: Hand-aimed cases: dense multicast bursts + dateline-heavy torus.
TARGETED_CASES = targeted_configs()

#: Deterministic fuzz corpus: every test run sees the same configs.
SMOKE_CASES = list(random_configs(seed=20260726, count=12))
NIGHTLY_CASES = list(random_configs(seed=411, count=60,
                                    cycles=1500, warmup=300,
                                    sizes=(8, 16, 16, 36, 64)))


class TestHarness:
    """The differential harness itself must be trustworthy."""

    def test_all_backends_registered(self):
        assert set(ALL_BACKENDS) == {"reference", "array"}

    def test_run_summaries_covers_backends(self):
        cfg = make_config(cycles=400, warmup=100)
        sums = run_summaries(cfg, ALL_BACKENDS)
        assert len(sums) == len(ALL_BACKENDS)
        assert all(s == sums[0] for s in sums)

    def test_lockstep_agreement_reports_none(self):
        cfg = make_config(cycles=300, warmup=100, rate=0.05)
        assert find_divergence(cfg, "reference", "array", cycles=300) is None

    def test_lockstep_pinpoints_seeded_divergence(self):
        """A deliberately broken engine must be caught at the first bad
        cycle, with the state diff naming the mangled port."""
        from repro.sim.backend import SimBackend

        class SkewBackend(SimBackend):
            """Reference, except it skews one port's round-robin."""
            name = "skew-test"

            def step(self, now=None):
                moved = self.net.step(now)
                if self.net.cycle > 40:
                    self.net.routers[0].out_ports[0].rr += 1
                return moved

        BACKENDS["skew-test"] = SkewBackend
        try:
            cfg = make_config(rate=0.2, cycles=200, warmup=50)
            div = find_divergence(cfg, "reference", "skew-test", cycles=120)
            assert isinstance(div, Divergence)
            assert div.cycle == 40      # skew arms once net.cycle > 40
            assert div.diffs == ["ports.r0.cw_out.rr: 0 != 1"]
            report = div.report()
            assert "diverge after stepping cycle" in report
            assert ".rr" in report or "r0." in report
        finally:
            del BACKENDS["skew-test"]

    def test_identical_wedge_is_an_error_not_agreement(self):
        """Two engines stuck in the same state are not equivalent: a
        drain that hits its limit raises instead of reporting None."""
        _, cfg, _ = TARGETED_CASES[2]       # over-saturated torus hotspot
        with pytest.raises(RuntimeError, match="possible deadlock"):
            find_divergence(cfg, "reference", "array", cycles=100,
                            drain_limit=10)

    def test_divergence_report_truncates(self):
        d = Divergence("a", "b", 7, diffs=[f"k{i}: 0 != 1"
                                           for i in range(100)])
        report = d.report(limit=5)
        assert "95 more differing keys" in report


class TestDifferentialFuzz:
    @pytest.mark.parametrize("case", SMOKE_CASES,
                             ids=[f"case{i}" for i, _ in SMOKE_CASES])
    def test_randomized_equivalence(self, case):
        i, cfg = case
        assert_backends_equivalent(cfg, ALL_BACKENDS)

    def test_corpus_spans_the_load_axis(self):
        """The fuzz stream must hit both the idle-heavy fast-forward
        regime and the saturated full-network regime -- and carry real
        traffic in aggregate, so the equivalence cases cannot all pass
        trivially on empty networks after a corpus regeneration."""
        rates = [cfg.spec.rate for _, cfg in SMOKE_CASES + NIGHTLY_CASES]
        assert min(rates) < 0.005
        assert max(rates) > 0.1
        kinds = {cfg.spec.kind for _, cfg in SMOKE_CASES}
        assert len(kinds) >= 3
        # expected arrivals = rate x nodes x cycles, summed per corpus
        for cases in (SMOKE_CASES, NIGHTLY_CASES):
            expected = sum(c.spec.rate * c.spec.n * c.spec.cycles
                           for _, c in cases)
            assert expected > 50 * len(cases), (
                "fuzz corpus is near-degenerate: too few expected "
                "arrivals to exercise the step kernels")
        # the reactive closed-loop slice must survive corpus
        # regeneration: it is the only fuzz coverage of the per-cycle
        # feedback path (window stalls, replies, barrier phases)
        closed = [c for _, c in SMOKE_CASES + NIGHTLY_CASES
                  if "window=" in c.spec.workload]
        assert len(closed) >= (len(SMOKE_CASES) + len(NIGHTLY_CASES)) // 8
        assert any(c.spec.workload.startswith("cache_coherence")
                   for c in closed)
        assert any(c.spec.workload.startswith("allreduce")
                   for c in closed)

    @pytest.mark.slow
    @pytest.mark.parametrize("case", NIGHTLY_CASES,
                             ids=[f"case{i}" for i, _ in NIGHTLY_CASES])
    def test_nightly_randomized_equivalence(self, case):
        i, cfg = case
        assert_backends_equivalent(cfg, ALL_BACKENDS)


class TestTargetedCorpus:
    """Traffic shapes the randomized stream under-samples, driven in
    lockstep (state digest every cycle, full snapshots at checkpoints)."""

    @pytest.mark.parametrize(
        "case", TARGETED_CASES, ids=[name for name, _, _ in TARGETED_CASES])
    @pytest.mark.parametrize(
        "backend", [b for b in ALL_BACKENDS if b != "reference"])
    def test_targeted_lockstep(self, case, backend):
        name, cfg, inject = case
        div = find_divergence(cfg, "reference", backend, inject=inject)
        assert div is None, f"{name}:\n{div.report()}"

    def test_multicast_bursts_deliver(self):
        """The burst hook must produce real collective traffic, or the
        lockstep cases above pass vacuously."""
        name, cfg, inject = TARGETED_CASES[0]
        from repro.sim.session import SimulationSession
        session = SimulationSession(cfg.with_backend("reference"))
        for t in range(200):
            session.mix.generate(t)
            inject(session, t)
            session.backend.step(t)
        assert session.net.deliveries > 0
        session.backend.detach()


class TestFallbackRoundTrips:
    """Forced entry/exit of the array engine's escape hatches: the
    object graph and the arrays must hand state back and forth without
    losing a flit."""

    def _spec(self):
        from repro.traffic.workload import WorkloadSpec
        return WorkloadSpec(kind="torus", n=16, msg_len=6, beta=0.05,
                            rate=0.08, cycles=600, warmup=100, seed=17)

    def test_mid_run_detach_object_steps_resync(self):
        """Leave the arrays mid-run, advance the object graph directly,
        re-adopt, finish -- against an uninterrupted reference run."""
        from repro.sim.session import RunConfig, SimulationSession
        spec = self._spec()
        interrupted = SimulationSession(RunConfig(spec=spec,
                                                  backend="array"))
        reference = SimulationSession(RunConfig(spec=spec,
                                                backend="reference"))
        be = interrupted.backend
        for t in range(spec.cycles):
            for s in (interrupted, reference):
                s.mix.generate(t)
            if t == 150:
                be.materialize()
                be.detach()
            if 150 <= t < 180:
                interrupted.net.step(t)     # pure object-graph cycles
            else:
                if t == 180:
                    be.resync()             # re-adopt mid-flight state
                be.step(t)
            reference.backend.step(t)
        t = spec.cycles
        while (interrupted.net.total_flits()
               or reference.net.total_flits()):
            be.step(t)
            reference.backend.step(t)
            t += 1
            assert t < spec.cycles + 100_000
        snap_a = interrupted.net.state_snapshot()
        snap_b = reference.net.state_snapshot()
        assert snap_a == snap_b
        assert interrupted.net.deliveries == reference.net.deliveries
        be.detach()


class TestKnownRegressions:
    """Configs that caught real array-backend bugs during development;
    kept as permanent regression anchors (cheap, high-value)."""

    def test_torus_dateline_vclass_pingpong(self):
        """6x6 torus: a blocked post-turn header whose requested VC is
        re-raised by trailing flits crossing the X dateline, then reset
        by the reference's per-cycle route_head re-scan.  The array
        backend must refresh its cached request on dateline commits
        (and must not lose the cache to stale reverse-map entries)."""
        cfg = make_config(kind="torus", n=36, msg_len=6, beta=0.05,
                          rate=0.15, cycles=900, warmup=200, seed=23)
        assert_backends_equivalent(cfg, ALL_BACKENDS)

    def test_saturated_torus16(self):
        cfg = make_config(kind="torus", n=16, msg_len=8, beta=0.0,
                          rate=0.4, cycles=1200, warmup=300, seed=5)
        assert_backends_equivalent(cfg, ALL_BACKENDS)

    def test_quarc_relay_reinjection(self):
        """Adapter pushes during commit (the relay ablation) must reach
        the array mirrors through the push sinks."""
        cfg = make_config(kind="quarc", n=8, msg_len=4, beta=0.3,
                          rate=0.03, cycles=1500, warmup=300, seed=5,
                          bcast_mode="relay")
        summaries = assert_backends_equivalent(cfg, ALL_BACKENDS)
        assert summaries[0].bcast_samples > 0
