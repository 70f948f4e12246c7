"""Tests for the repro.workloads subsystem: scenario registry, spec
grammar, bursty/trace arrival models, JSONL trace record/replay, and the
session wiring that makes ``WorkloadSpec.pattern`` / ``.arrival`` real.

The heavyweight guarantee lives in ``TestBackendEquivalenceMatrix``: for
every registered scenario on every topology, the ``array`` backend's
idle fast-forward must stay summary-identical to the ``reference``
backend -- the injector seam is only allowed to change *what* arrives,
never how a given arrival train executes.
"""

import random

import pytest

from helpers import one_cycle_segments
from repro.core.api import NETWORK_KINDS, build_network
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.arrival import BernoulliInjector
from repro.traffic.generators import HotspotPattern
from repro.traffic.mix import TrafficMix
from repro.traffic.workload import WorkloadSpec
from repro.workloads import (ARRIVAL, PATTERN, BurstyInjector, Trace,
                             TraceInjector, TraceRecorder, check_spec,
                             get_scenario, list_scenarios, parse_spec,
                             resolve_arrival, resolve_pattern)


def _spec(**kw):
    base = dict(kind="quarc", n=8, msg_len=4, beta=0.1, rate=0.03,
                cycles=1200, warmup=300, seed=7)
    base.update(kw)
    return WorkloadSpec(**base)


def _run(spec, backend="reference", session_hook=None):
    session = SimulationSession(RunConfig(spec=spec, backend=backend))
    if session_hook is not None:
        session_hook(session)
    return session.run()


# ----------------------------------------------------------------------
# spec-string grammar + registry
# ----------------------------------------------------------------------
class TestSpecGrammar:
    def test_bare_name(self):
        assert parse_spec("uniform") == ("uniform", {})

    def test_params_coerced(self):
        name, params = parse_spec("hotspot:node=3,p=0.25")
        assert name == "hotspot"
        assert params == {"node": 3, "p": 0.25}
        assert isinstance(params["node"], int)

    def test_string_and_bool_values(self):
        _, params = parse_spec("trace:path=run.jsonl")
        assert params == {"path": "run.jsonl"}
        _, params = parse_spec("x:flag=true")
        assert params == {"flag": True}

    def test_whitespace_and_case_tolerated(self):
        name, params = parse_spec("  Hotspot : P = 0.5 ")
        assert name == "hotspot"
        assert params == {"p": 0.5}

    @pytest.mark.parametrize("bad", ["", "   ", ":p=1", "hotspot:p",
                                     "hotspot:p=", "hotspot:=3",
                                     "hotspot:p=1,p=2"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            check_spec("tornado", PATTERN)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="not usable as a pattern"):
            check_spec("bursty:on=0.3", PATTERN)
        with pytest.raises(ValueError, match="not usable as a arrival"):
            check_spec("hotspot", ARRIVAL)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            check_spec("hotspot:heat=9", PATTERN)

    def test_required_param_enforced(self):
        with pytest.raises(ValueError, match="requires parameter"):
            check_spec("trace", ARRIVAL)

    def test_aliases_resolve(self):
        assert get_scenario("neighbor").name == "neighbour"
        assert get_scenario("bitcomp").name == "bit-complement"
        assert get_scenario("poisson").name == "bernoulli"

    def test_registration_is_case_insensitive(self):
        """Regression: a mixed-case registered name must stay reachable
        (lookups lower-case their keys)."""
        from repro.workloads.registry import (_ALIASES, _REGISTRY,
                                              ScenarioInfo,
                                              register_scenario)
        info = ScenarioInfo(name="MixedCase", kind=PATTERN,
                            summary="test-only", aliases=("MC",),
                            build=lambda n: None)
        register_scenario(info)
        try:
            assert get_scenario("mixedcase") is info
            assert get_scenario("MixedCase") is info
            assert get_scenario("mc") is info
        finally:
            _REGISTRY.pop("mixedcase", None)
            _ALIASES.pop("mc", None)

    def test_string_params_survive_numeric_looking_values(self, tmp_path):
        """Regression: a trace path like '1e5' must not be float-coerced
        into a nonexistent '100000.0' filename."""
        target = tmp_path / "1e5"
        Trace(n=2, events=[(3, 0)]).save(str(target))
        import os
        old = os.getcwd()
        os.chdir(tmp_path)
        try:
            model = resolve_arrival("trace:path=1e5")
        finally:
            os.chdir(old)
        assert model.nodes == 2

    def test_listing_covers_acceptance_set(self):
        from repro.workloads import WORKLOAD
        names = {i.name for i in list_scenarios()}
        assert {"uniform", "hotspot", "transpose", "bit-complement",
                "neighbour", "permutation", "bursty", "trace",
                "classes", "cache_coherence", "allreduce"} <= names
        assert len(names) >= 11
        kinds = {i.kind for i in list_scenarios()}
        assert kinds == {PATTERN, ARRIVAL, WORKLOAD}

    def test_resolve_pattern_builds_configured_instance(self):
        pat = resolve_pattern("hotspot:node=2,p=0.9", n=16)
        assert isinstance(pat, HotspotPattern)
        assert (pat.hotspot, pat.p) == (2, 0.9)

    def test_resolve_arrival_default_is_bernoulli(self):
        model = resolve_arrival("bernoulli")
        inj = model(0, 0.1, random.Random(1))
        assert isinstance(inj, BernoulliInjector)

    def test_workload_spec_validates_scenarios_early(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            _spec(pattern="vortex")
        with pytest.raises(ValueError, match="unknown parameter"):
            _spec(arrival="bursty:power=9")


# ----------------------------------------------------------------------
# bursty arrivals
# ----------------------------------------------------------------------
class TestBurstyInjector:
    def test_bulk_matches_per_cycle(self):
        """Blocks of any length consume state + RNG like one-cycle
        segments."""
        a = BurstyInjector(0.05, random.Random(42), on_frac=0.3,
                           burst_len=8)
        b = BurstyInjector(0.05, random.Random(42), on_frac=0.3,
                           burst_len=8)
        per_cycle = one_cycle_segments(a, 8000)
        bulk = (b.arrivals_in(0, 777) + b.arrivals_in(777, 778)
                + b.arrivals_in(778, 8000))
        assert per_cycle == bulk
        assert a.arrivals == b.arrivals
        assert (a._on, a._dwell) == (b._on, b._dwell)

    def test_long_run_rate_matches_configured_rate(self):
        inj = BurstyInjector(0.04, random.Random(3), on_frac=0.25,
                             burst_len=10)
        n = 200_000
        fires = len(inj.arrivals_in(0, n))
        assert fires / n == pytest.approx(0.04, rel=0.1)

    def test_burstier_than_bernoulli(self):
        """Per-window counts must have higher variance than Bernoulli."""
        def window_var(make):
            inj = make()
            counts = [len(inj.arrivals_in(t, t + 50))
                      for t in range(0, 100_000, 50)]
            mean = sum(counts) / len(counts)
            return sum((c - mean) ** 2 for c in counts) / len(counts)

        v_bursty = window_var(lambda: BurstyInjector(
            0.05, random.Random(9), on_frac=0.2, burst_len=12))
        v_bern = window_var(lambda: BernoulliInjector(
            0.05, random.Random(9)))
        assert v_bursty > 1.5 * v_bern

    def test_zero_rate_never_fires(self):
        inj = BurstyInjector(0.0, random.Random(0))
        assert inj.arrivals_in(0, 5000) == []
        assert one_cycle_segments(inj, 200) == []

    @pytest.mark.parametrize("on,length", [(0.99, 1), (0.6, 1),
                                           (0.9, 2)])
    def test_clamped_off_dwell_keeps_long_run_rate(self, on, length):
        """Regression: short-burst/high-duty specs clamp the OFF dwell
        mean at one cycle; the ON rate must rescale against the
        *achievable* duty cycle or the injected load silently drops."""
        inj = BurstyInjector(0.05, random.Random(11), on_frac=on,
                             burst_len=length)
        n = 200_000
        fires = len(inj.arrivals_in(0, n))
        assert fires / n == pytest.approx(0.05, rel=0.1)

    @pytest.mark.parametrize("kw", [dict(rate=1.5), dict(on_frac=0.0),
                                    dict(on_frac=1.0), dict(on_frac=1.2),
                                    dict(burst_len=0.5)])
    def test_invalid_params(self, kw):
        args = dict(rate=0.1, on_frac=0.3, burst_len=8)
        args.update(kw)
        with pytest.raises(ValueError):
            BurstyInjector(args["rate"], random.Random(0),
                           on_frac=args["on_frac"],
                           burst_len=args["burst_len"])


# ----------------------------------------------------------------------
# trace arrivals + JSONL round-trip
# ----------------------------------------------------------------------
class TestTraceInjector:
    def test_bulk_matches_per_cycle(self):
        cycles = [0, 3, 4, 10, 11, 12, 500, 999]
        a, b = TraceInjector(cycles), TraceInjector(cycles)
        per_cycle = one_cycle_segments(a, 1000)
        bulk = b.arrivals_in(0, 7) + b.arrivals_in(7, 1000)
        assert per_cycle == bulk == cycles
        assert a.arrivals == b.arrivals == len(cycles)

    def test_exhausted_trace_goes_quiet(self):
        inj = TraceInjector([1])
        assert inj.arrivals_in(0, 10) == [1]
        assert inj.arrivals_in(10, 5000) == []

    def test_rejects_unsorted_or_duplicate_cycles(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TraceInjector([5, 4])
        with pytest.raises(ValueError, match="strictly increasing"):
            TraceInjector([4, 4])
        with pytest.raises(ValueError, match="non-negative"):
            TraceInjector([-1, 2])


class TestTraceFormat:
    def test_save_load_round_trip(self, tmp_path):
        tr = Trace(n=4, events=[(5, 1), (2, 0), (5, 3)],
                   meta={"note": "hi"})
        path = tr.save(str(tmp_path / "t.jsonl"))
        back = Trace.load(path)
        assert back.n == 4
        assert back.events == [(2, 0), (5, 1), (5, 3)]   # sorted
        assert back.meta == {"note": "hi"}
        assert len(back) == 3

    def test_load_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"format": "something-else", "n": 4}\n')
        with pytest.raises(ValueError, match="not a repro-trace/v1"):
            Trace.load(str(p))
        p.write_text("not json at all\n")
        with pytest.raises(ValueError, match="JSON header"):
            Trace.load(str(p))

    def test_load_rejects_bad_events(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"format": "repro-trace/v1", "n": 4}\n'
                     '{"cycle": 3}\n')
        with pytest.raises(ValueError, match="bad trace event"):
            Trace.load(str(p))

    def test_load_names_the_malformed_line(self, tmp_path):
        """Regression: error messages must carry the JSONL line number
        so a bad line in a 100k-event trace is findable."""
        p = tmp_path / "bad.jsonl"
        p.write_text('{"format": "repro-trace/v1", "n": 4}\n'
                     '{"t": 1, "node": 0}\n'
                     '{"t": 2, "node": "zero"}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:3: bad trace"):
            Trace.load(str(p))

    @pytest.mark.parametrize("lines,match", [
        ('{"t": 9, "node": 1}\n{"t": 3, "node": 0}\n',
         r":3: out-of-order event \(t=3, node=0\) after \(t=9, node=1\)"),
        ('{"t": 5, "node": 2}\n{"t": 5, "node": 1}\n',
         r":3: out-of-order event"),
        ('{"t": 5, "node": 1}\n{"t": 5, "node": 1}\n',
         r":3: duplicate event"),
        ('{"t": -2, "node": 1}\n', r":2: negative cycle -2"),
        ('{"t": 1, "node": 7}\n', r":2: node 7 out of range for n=4"),
    ])
    def test_load_rejects_disordered_events_with_line_numbers(
            self, tmp_path, lines, match):
        """Regression: out-of-order / duplicate / out-of-range events
        used to be silently re-sorted (or surfaced without a location);
        they must raise a ValueError naming the offending line."""
        p = tmp_path / "bad.jsonl"
        p.write_text('{"format": "repro-trace/v1", "n": 4}\n' + lines)
        with pytest.raises(ValueError, match=match):
            Trace.load(str(p))

    def test_event_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            Trace(n=2, events=[(0, 5)])
        with pytest.raises(ValueError, match="negative"):
            Trace(n=2, events=[(-3, 1)])

    def test_self_addressed_unicast_is_rejected(self, tmp_path):
        """Regression: a v2 event with ``dst == node`` passed the range
        check; Quarc then died mid-run and the grid engines disagreed."""
        with pytest.raises(ValueError, match="dst 1 of node 1 is out of"):
            Trace(n=4, events=[(0, 1, 1, 4, None, False)])
        p = tmp_path / "self.jsonl"
        p.write_text(
            '{"format": "repro-trace/v2", "n": 4}\n'
            '{"t": 0, "node": 2, "dst": 3, "size": 4, "cls": null, '
            '"bcast": false}\n'
            '{"t": 1, "node": 1, "dst": 1, "size": 4, "cls": null, '
            '"bcast": false}\n')
        with pytest.raises(ValueError,
                           match=r"self\.jsonl:3: dst 1 of node 1 is"):
            Trace.load(str(p))

    def test_recorder_captures_mix_injections(self):
        net, _ = build_network("quarc", 8)
        mix = TrafficMix(net, 0.05, 4, beta=0.1, seed=3)
        rec = TraceRecorder.attach(mix, meta={"seed": 3})
        for t in range(400):
            mix.generate(t)
            net.step(t)
        tr = rec.trace()
        assert len(tr) == mix.generated_total > 0
        # replaying the recorded trains through TraceInjectors
        # reproduces the arrival process exactly
        per = tr.per_node()
        net2, _ = build_network("quarc", 8)
        mix2 = TrafficMix(net2, 0.05, 4, beta=0.1, seed=3,
                          arrival=lambda i, r, rng: TraceInjector(per[i]))
        for t in range(400):
            mix2.generate(t)
            net2.step(t)
        assert mix2.generated_total == mix.generated_total
        assert net2.flits_moved == net.flits_moved

    def test_mix_rejects_node_count_mismatch(self, tmp_path):
        tr = Trace(n=4, events=[(1, 0)])
        path = tr.save(str(tmp_path / "t4.jsonl"))
        model = resolve_arrival(f"trace:path={path}")
        net, _ = build_network("quarc", 8)
        with pytest.raises(ValueError, match="pinned to 4 nodes"):
            TrafficMix(net, 0.01, 4, arrival=model)


# ----------------------------------------------------------------------
# session wiring (the dropped-pattern bug) and scenario behaviour
# ----------------------------------------------------------------------
class TestSessionScenarios:
    def test_session_honours_pattern(self):
        """Regression: SimulationSession used to drop WorkloadSpec.pattern,
        silently running uniform whatever the spec said."""
        tails = []

        def hook(session):
            session.net.on_tail = \
                lambda node, pkt, now: tails.append((pkt.src, pkt.dst))

        _run(_spec(beta=0.0, pattern="neighbour"), session_hook=hook)
        assert tails, "run delivered no traffic"
        assert all(dst == (src + 1) % 8 for src, dst in tails)

    def test_pattern_changes_delivered_traffic(self):
        uniform = _run(_spec(beta=0.0))
        neighbour = _run(_spec(beta=0.0, pattern="neighbour"))
        # same arrival train (same seed), different spatial distribution
        assert uniform.generated_msgs == neighbour.generated_msgs
        assert uniform.flits_moved != neighbour.flits_moved
        assert uniform.unicast_mean != neighbour.unicast_mean

    def test_arrival_changes_temporal_process_only(self):
        bern = _run(_spec(beta=0.0))
        bursty = _run(_spec(beta=0.0, arrival="bursty:on=0.3,len=8"))
        assert bern.extra["arrival"] == "bernoulli"
        assert bursty.extra["arrival"] == "bursty:on=0.3,len=8"
        assert bern.generated_msgs != bursty.generated_msgs

    def test_summary_records_scenario(self):
        s = _run(_spec(pattern="hotspot:p=0.5"))
        assert s.extra["pattern"] == "hotspot:p=0.5"
        assert s.extra["arrival"] == "bernoulli"


#: scenario matrix: every registered pattern (with non-default params
#: where they exist) x the stochastic arrival models
MATRIX_PATTERNS = ["uniform", "hotspot:node=1,p=0.3", "transpose",
                   "bit-complement", "neighbour", "permutation:seed=2"]
MATRIX_ARRIVALS = ["bernoulli", "bursty:on=0.25,len=6"]


class TestBackendEquivalenceMatrix:
    @pytest.mark.parametrize("arrival", MATRIX_ARRIVALS)
    @pytest.mark.parametrize("pattern", MATRIX_PATTERNS)
    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    def test_identical_summaries(self, kind, pattern, arrival):
        from repro.sim.backend import BACKENDS
        spec = WorkloadSpec(kind=kind, n=8, msg_len=4, beta=0.1,
                            rate=0.03, cycles=900, warmup=200, seed=13,
                            pattern=pattern, arrival=arrival)
        ref = _run(spec, backend="reference")
        for backend in sorted(BACKENDS):
            if backend == "reference":
                continue
            assert _run(spec, backend=backend) == ref, backend
        assert ref.delivered_msgs > 0

    def test_trace_replay_equivalence(self, tmp_path):
        spec = _spec(arrival="bursty:on=0.3,len=6")
        session = SimulationSession(RunConfig(spec=spec, backend="array"))
        rec = TraceRecorder.attach(session.mix)
        original = session.run()
        path = rec.trace().save(str(tmp_path / "run.jsonl"))

        replay_spec = spec.with_scenario(arrival=f"trace:path={path}")
        ref = _run(replay_spec, backend="reference")
        arr = _run(replay_spec, backend="array")
        assert ref == arr
        # the replay reproduces the recorded run flit-for-flit (summary
        # rows match; `extra` differs only in the arrival spec string)
        assert ref.row() == original.row()
        assert ref.flits_moved == original.flits_moved
        assert ref.generated_msgs == original.generated_msgs
