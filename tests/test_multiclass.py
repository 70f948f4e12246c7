"""Tests for the multi-class workload pipeline: TrafficClass,
multi-class TrafficMix, the ``classes:`` spec grammar, application
scenarios (cache_coherence / allreduce), per-class summary accounting,
and the seed-independent ``repro-trace/v2`` record/replay loop.
"""

import dataclasses
import random
from unittest import mock

import pytest

from repro.core.api import build_network
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.generators import NeighbourPattern, UniformPattern
from repro.traffic.mix import CALENDAR_BLOCK, TrafficClass, TrafficMix
from repro.traffic.workload import WorkloadSpec
from repro.workloads import (WORKLOAD, Trace, TraceRecorder, get_scenario,
                             list_scenarios, parse_classes,
                             resolve_workload)

CC = "cache_coherence:read_rate=0.012,write_rate=0.002"


def _spec(**kw):
    base = dict(kind="quarc", n=8, msg_len=4, beta=0.0, rate=1.0,
                cycles=1500, warmup=300, seed=7, workload=CC)
    base.update(kw)
    return WorkloadSpec(**base)


def _run(spec, backend="reference"):
    session = SimulationSession(RunConfig(spec=spec, backend=backend))
    summary = session.run()
    session.backend.detach()
    return summary


# ----------------------------------------------------------------------
# TrafficClass + multi-class TrafficMix
# ----------------------------------------------------------------------
class TestTrafficClass:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty name"):
            TrafficClass("", 0.1, 4)
        with pytest.raises(ValueError, match="rate"):
            TrafficClass("x", 1.5, 4)
        with pytest.raises(ValueError, match="length"):
            TrafficClass("x", 0.1, 0)
        with pytest.raises(ValueError, match="cast"):
            TrafficClass("x", 0.1, 4, cast="anycast")

    def test_scaled(self):
        c = TrafficClass("x", 0.1, 4).scaled(2.0)
        assert c.rate == pytest.approx(0.2)
        assert c.name == "x"

    def test_scaled_clamps_at_injection_ceiling(self):
        """Regression: a sweep multiplier overshooting rate=1.0 must
        saturate the class, not crash the run mid-sweep."""
        assert TrafficClass("x", 0.9, 4).scaled(1.5).rate == 1.0
        spec = _spec(rate=1.5,
                     workload="classes:a=uniform,len=4,rate=0.9")
        s = _run(spec)    # must not raise
        assert s.extra["classes"]["a"]["rate"] == 1.0


class TestMulticlassMix:
    def _mix(self, classes, n=16, seed=3):
        net, _ = build_network("quarc", n)
        return TrafficMix(net, classes=classes, seed=seed), net

    def test_per_class_rates_and_sizes(self):
        classes = [TrafficClass("small", 0.05, 2),
                   TrafficClass("big", 0.01, 9)]
        mix, net = self._mix(classes)
        sizes = []
        mix.on_inject = (lambda node, now, cls, dst, size, bcast:
                         sizes.append((cls, size)))
        for t in range(2000):
            mix.generate(t)
            net.step(t)
        assert mix.class_generated["small"] == pytest.approx(
            0.05 * 16 * 2000, rel=0.1)
        assert mix.class_generated["big"] == pytest.approx(
            0.01 * 16 * 2000, rel=0.15)
        assert {s for c, s in sizes if c == "small"} == {2}
        assert {s for c, s in sizes if c == "big"} == {9}
        assert mix.generated_total == sum(mix.class_generated.values())

    def test_broadcast_class_sends_collectives(self):
        classes = [TrafficClass("inv", 0.01, 2, cast="broadcast")]
        mix, net = self._mix(classes)
        for t in range(800):
            mix.generate(t)
            net.step(t)
        assert mix.generated_broadcasts == mix.class_generated["inv"] > 0
        assert mix.generated_unicasts == 0

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self._mix([TrafficClass("a", 0.01, 2),
                       TrafficClass("a", 0.02, 4)])

    def test_classes_exclusive_with_single_class_args(self):
        net, _ = build_network("quarc", 8)
        with pytest.raises(ValueError, match="exclusive"):
            TrafficMix(net, 0.01, 4,
                       classes=[TrafficClass("a", 0.01, 2)])

    def test_calendar_block_does_not_change_the_stream(self):
        """Whatever the calendar's block length -- one cycle (what
        per-cycle polling drew), an odd one or the default -- a
        multi-class mix emits the same (cycle, node, class, dst) stream,
        node-major and class-minor within a cycle."""
        classes = [TrafficClass("u", 0.04, 2),
                   TrafficClass("b", 0.02, 3, cast="broadcast",
                                arrival="bursty:on=0.3,len=5")]
        streams = []
        for block in (1, 123, CALENDAR_BLOCK):
            mix, _ = self._mix(classes, seed=11)
            fired = []
            mix.emit = lambda v, d, now, size, name, fired=fired: \
                fired.append((now, v, "ub".index(name), d))
            with mock.patch("repro.traffic.mix.CALENDAR_BLOCK", block):
                for t in range(600):
                    mix.generate(t)
            streams.append(fired)
        assert streams[0] == streams[1] == streams[2] == sorted(streams[0])
        assert {k for _, _, k, _ in streams[0]} == {0, 1}

    @pytest.mark.parametrize("single", [False, True],
                             ids=["multiclass", "single"])
    def test_a_skipped_span_draws_no_destinations(self, single):
        """Arrivals of cycles no call injected (a drain ran them) are
        dropped before their β coins and destinations are drawn: each
        node's k-th emitted message still takes its streams' k-th coin
        and pick.  Mutant killed: a class's destinations, or a
        single-class mix's coins and destinations, drawn with its
        block."""
        def make():
            if single:
                return TrafficMix(build_network("quarc", 16)[0], 0.05, 2,
                                  beta=0.2, seed=3)
            return self._mix([TrafficClass("u", 0.05, 2),
                              TrafficClass("b", 0.01, 3,
                                           cast="broadcast")])[0]
        mix, fresh = make(), make()
        sent = {}
        mix.emit = lambda v, d, now, size, name: sent.setdefault(
            v, []).append(d)
        for t in [*range(300), *range(700, 900)]:
            mix.generate(t)
        pick, coins = fresh._patterns[0].pick, fresh._coin_rng[0]
        assert sum(map(len, sent.values())) > 100
        assert any(-1 in dsts for dsts in sent.values())
        for v, dsts in sent.items():
            rng = fresh._dst_rng[0][v]
            if not single:      # the broadcast class draws nothing
                dsts = [d for d in dsts if d >= 0]
            assert dsts == [-1 if coins and coins[v].random() < 0.2
                            else pick(v, rng) for _ in dsts]


class TestPatternNodeValidation:
    def test_mix_rejects_mismatched_pattern(self):
        """Regression: a pattern built for a different network size used
        to be accepted silently (only the arrival model was checked) and
        could emit out-of-range destinations mid-run."""
        net, _ = build_network("quarc", 8)
        with pytest.raises(ValueError, match="16 nodes but the network "
                                             "has 8"):
            TrafficMix(net, 0.01, 4, pattern=UniformPattern(16))

    def test_multiclass_rejects_mismatched_pattern_object(self):
        net, _ = build_network("quarc", 8)
        cls = TrafficClass("x", 0.01, 2)
        cls = dataclasses.replace(cls, pattern=NeighbourPattern(16))
        with pytest.raises(ValueError, match="built for 16 nodes"):
            TrafficMix(net, classes=[cls])

    def test_matching_pattern_accepted(self):
        net, _ = build_network("quarc", 8)
        TrafficMix(net, 0.01, 4, pattern=UniformPattern(8))


# ----------------------------------------------------------------------
# classes: grammar + registry workloads
# ----------------------------------------------------------------------
class TestClassesGrammar:
    def test_issue_example(self):
        classes = parse_classes(
            "inv=broadcast,len=2,rate=0.002;"
            "fill=hotspot:node=0,len=10,rate=0.012")
        inv, fill = classes
        assert (inv.name, inv.cast, inv.msg_len, inv.rate) == \
            ("inv", "broadcast", 2, 0.002)
        assert (fill.name, fill.cast, fill.msg_len, fill.rate) == \
            ("fill", "unicast", 10, 0.012)
        assert fill.pattern == "hotspot:node=0"

    def test_pattern_params_attach_to_pattern(self):
        (c,) = parse_classes("hot=hotspot:node=1,p=0.4,len=4,rate=0.01")
        assert c.pattern == "hotspot:node=1,p=0.4"
        assert (c.msg_len, c.rate) == (4, 0.01)

    def test_arrival_params_attach_to_arrival(self):
        """Items after arrival= extend the arrival spec -- so bursty's
        own `len` parameter stays distinguishable from the class len."""
        (c,) = parse_classes(
            "u=uniform,len=4,rate=0.01,arrival=bursty:on=0.3,len=8")
        assert c.msg_len == 4
        assert c.arrival == "bursty:on=0.3,len=8"

    @pytest.mark.parametrize("bad,match", [
        ("", "no classes"),
        ("a=uniform,rate=0.01", "needs both rate= and len="),
        ("a=uniform,len=4", "needs both rate= and len="),
        ("a=uniform,len=x,rate=0.01", "integer flit count"),
        ("a=uniform,len=true,rate=0.01", "integer flit count"),
        ("a=broadcast,node=3,len=2,rate=0.01", "no pattern to attach"),
        ("a=uniform,len=4,rate=0.01;a=uniform,len=2,rate=0.01",
         "duplicate class"),
        ("a=vortex,len=4,rate=0.01", "unknown scenario"),
        ("=uniform,len=4,rate=0.01", "expected <name>="),
    ])
    def test_malformed_specs_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            parse_classes(bad)

    def test_workload_spec_validates_early(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            _spec(workload="warpdrive")
        with pytest.raises(ValueError, match="needs both"):
            _spec(workload="classes:a=uniform,len=4")

    def test_app_scenarios_registered_and_listed(self):
        names = {i.name for i in list_scenarios(WORKLOAD)}
        assert {"classes", "cache_coherence", "allreduce"} <= names
        assert get_scenario("coherence").name == "cache_coherence"
        assert get_scenario("all-reduce").name == "allreduce"

    def test_resolve_workload_builds_classes(self):
        classes = resolve_workload("cache_coherence:storms=true", 16)
        by_name = {c.name: c for c in classes}
        assert by_name["inv"].cast == "broadcast"
        assert by_name["inv"].arrival.startswith("bursty")
        assert by_name["fill"].cast == "unicast"
        ar = resolve_workload("allreduce:chunk=5", 16)
        assert {c.name for c in ar} == {"scatter", "gather", "barrier"}
        assert all(c.msg_len == 5 for c in ar if c.name != "barrier")

    def test_neighbour_offset_pattern(self):
        rng = random.Random(0)
        down = NeighbourPattern(8, offset=1)
        up = NeighbourPattern(8, offset=-1)
        assert down.pick(0, rng) == 1
        assert up.pick(0, rng) == 7
        with pytest.raises(ValueError, match="multiple of N"):
            NeighbourPattern(8, offset=8)


# ----------------------------------------------------------------------
# session wiring + per-class summary
# ----------------------------------------------------------------------
class TestMulticlassSessions:
    def test_summary_carries_per_class_breakdown(self):
        s = _run(_spec())
        classes = s.extra["classes"]
        assert set(classes) == {"fill", "inv"}
        assert classes["fill"]["cast"] == "unicast"
        assert classes["inv"]["cast"] == "broadcast"
        assert classes["fill"]["delivered"] > 0
        assert classes["inv"]["delivered"] > 0
        assert classes["fill"]["latency_mean"] > 0
        assert s.extra["workload"] == CC
        # aggregates stay consistent with the breakdown
        assert (classes["fill"]["generated"] + classes["inv"]["generated"]
                == s.generated_msgs)
        # accessors
        assert s.per_class == classes
        rows = s.class_rows()
        assert {r["class"] for r in rows} == {"fill", "inv"}

    def test_single_class_summary_shape_unchanged(self):
        """The paper's workload must not grow new extra keys (golden
        fixtures pin this shape)."""
        s = _run(_spec(workload="", rate=0.03))
        assert "classes" not in s.extra
        assert "workload" not in s.extra
        assert s.per_class == {}
        assert s.class_rows() == []

    def test_rate_scales_all_class_rates(self):
        base = _run(_spec(seed=5, cycles=2500, warmup=500))
        double = _run(_spec(seed=5, cycles=2500, warmup=500, rate=2.0))
        for name in ("fill", "inv"):
            b = base.extra["classes"][name]["generated"]
            d = double.extra["classes"][name]["generated"]
            assert d == pytest.approx(2 * b, rel=0.25)
            assert double.extra["classes"][name]["rate"] == \
                pytest.approx(2 * base.extra["classes"][name]["rate"])

    @pytest.mark.parametrize("workload", [CC, "allreduce:chunk=4"])
    def test_backend_equivalence_per_class(self, workload):
        from repro.sim.backend import BACKENDS
        spec = _spec(workload=workload, n=16, cycles=1200, warmup=300)
        ref = _run(spec, backend="reference")
        for backend in sorted(BACKENDS):
            if backend != "reference":
                assert _run(spec, backend=backend) == ref, backend
        assert ref.extra["classes"]

    def test_to_dict_omits_workload_only_when_empty(self):
        legacy = _spec(workload="", rate=0.01).to_dict()
        assert "workload" not in legacy
        multi = _spec().to_dict()
        assert multi["workload"] == CC

    def test_label_mentions_workload(self):
        assert "wl=" in _spec().label()
        assert "wl=" not in _spec(workload="", rate=0.01).label()


# ----------------------------------------------------------------------
# repro-trace/v2 record + replay
# ----------------------------------------------------------------------
class TestTraceV2:
    def test_save_load_round_trip(self, tmp_path):
        tr = Trace(n=4, events=[(5, 1, 2, 4, "fill", False),
                                (2, 0, -1, 2, "inv", True),
                                (5, 1, -1, 2, None, True)],
                   meta={"note": "hi"})
        assert tr.version == 2
        path = tr.save(str(tmp_path / "t2.jsonl"))
        back = Trace.load(path)
        assert back.version == 2
        assert back.events == [(2, 0, -1, 2, "inv", True),
                               (5, 1, 2, 4, "fill", False),
                               (5, 1, -1, 2, None, True)]
        assert back.meta == {"note": "hi"}

    def test_same_cycle_same_node_order_preserved(self, tmp_path):
        """Multi-class: one node may inject several messages in one
        cycle; the recorded order must survive the sort + round trip."""
        tr = Trace(n=2, events=[(3, 0, 1, 9, "big", False),
                                (3, 0, -1, 2, "inv", True)])
        path = tr.save(str(tmp_path / "t.jsonl"))
        back = Trace.load(path)
        assert [e[3] for e in back.events] == [9, 2]

    def test_v2_validation(self, tmp_path):
        with pytest.raises(ValueError, match="dst=-1"):
            Trace(n=4, events=[(1, 0, 2, 4, None, True)])
        with pytest.raises(ValueError, match="out of range"):
            Trace(n=4, events=[(1, 0, 9, 4, None, False)])
        with pytest.raises(ValueError, match="size"):
            Trace(n=4, events=[(1, 0, 2, 0, None, False)])
        with pytest.raises(ValueError, match="uniform"):
            Trace(n=4, events=[(1, 0), (2, 1, 3, 4, None, False)])

    def test_v2_trace_rejected_as_per_class_arrival(self, tmp_path):
        """Regression: a v2 trace pins whole messages, so using it as a
        per-class arrival model must fail loudly instead of crashing on
        duplicate cycles or silently re-drawing the recorded payload."""
        tr = Trace(n=8, events=[(3, 0, 1, 4, "a", False),
                                (3, 0, -1, 2, "b", True)])
        path = tr.save(str(tmp_path / "v2.jsonl"))
        net, _ = build_network("quarc", 8)
        cls = TrafficClass("x", 0.01, 2, arrival=f"trace:path={path}")
        with pytest.raises(ValueError, match="cannot serve as a "
                                             "per-class arrival"):
            TrafficMix(net, classes=[cls])

    def test_v1_trace_accepted_as_per_class_arrival(self, tmp_path):
        p = tmp_path / "v1.jsonl"
        p.write_text('{"format": "repro-trace/v1", "n": 8}\n'
                     + "".join(f'{{"t": {t}, "node": 0}}\n'
                               for t in (3, 7, 9)))
        net, _ = build_network("quarc", 8)
        cls = TrafficClass("x", 0.01, 2, arrival=f"trace:path={p}")
        mix = TrafficMix(net, classes=[cls])
        for t in range(20):
            mix.generate(t)
            net.step(t)
        assert mix.class_generated["x"] == 3

    def test_v1_still_loads(self, tmp_path):
        p = tmp_path / "v1.jsonl"
        p.write_text('{"format": "repro-trace/v1", "n": 4}\n'
                     '{"t": 1, "node": 0}\n{"t": 2, "node": 3}\n')
        tr = Trace.load(str(p))
        assert tr.version == 1
        assert tr.events == [(1, 0), (2, 3)]

    def test_multiclass_replay_is_seed_independent(self, tmp_path):
        spec = _spec(n=16, cycles=1500, warmup=300,
                     workload="cache_coherence:storms=true")
        session = SimulationSession(RunConfig(spec=spec, backend="array"))
        rec = TraceRecorder.attach(session.mix)
        original = session.run()
        session.backend.detach()
        path = rec.trace().save(str(tmp_path / "mc.jsonl"))
        assert Trace.load(path).version == 2

        replay = spec.with_scenario(workload="",
                                    arrival=f"trace:path={path}")
        replay = dataclasses.replace(replay, seed=spec.seed + 999)
        from repro.sim.backend import BACKENDS
        outs = {b: _run(replay, backend=b) for b in sorted(BACKENDS)}
        first = next(iter(outs.values()))
        assert all(o == first for o in outs.values())
        # seed-independent: same messages, same latencies, same rows
        assert first.row() == original.row()
        assert first.flits_moved == original.flits_moved
        # the per-class breakdown survives replay (measured form)
        classes = first.extra["classes"]
        for name in ("fill", "inv"):
            assert classes[name]["generated"] == \
                original.extra["classes"][name]["generated"]
            assert classes[name]["latency_mean"] == pytest.approx(
                original.extra["classes"][name]["latency_mean"])

    def test_several_messages_per_cycle_on_every_backend(self, tmp_path):
        """A node may send several recorded messages in one cycle (two
        unicast classes, plus a broadcast on a rotating node): each is
        its own arrival, injected in recorded order, on every backend."""
        events = []
        for t in range(0, 400, 5):
            for node in range(8):
                events.append((t, node, (node + 1) % 8, 4, "big", False))
                events.append((t, node, (node + 3) % 8, 2, "small", False))
                if node == t % 8:
                    events.append((t, node, -1, 2, "inv", True))
        path = Trace(n=8, events=events).save(str(tmp_path / "burst.jsonl"))
        spec = _spec(workload="", rate=0.0, cycles=600, warmup=100,
                     arrival=f"trace:path={path}")
        from repro.sim.backend import BACKENDS
        outs = [_run(spec, backend=b) for b in sorted(BACKENDS)]
        assert outs[0] == outs[1]
        assert outs[0].generated_msgs == len(events)
        generated = {name: block["generated"]
                     for name, block in outs[0].extra["classes"].items()}
        assert generated == {"big": 640, "small": 640, "inv": 80}

    def test_replay_saturation_threshold_tracks_event_sizes(self,
                                                            tmp_path):
        """Regression: the saturation heuristic's size reference must
        come from the replayed events (max message size), not from the
        replay spec's unused msg_len -- otherwise an original and its
        replay could disagree on the `saturated` flag."""
        tr = Trace(n=8, events=[(0, 0, 1, 4, "a", False),
                                (1, 2, 3, 9, "b", False)])
        path = tr.save(str(tmp_path / "sz.jsonl"))
        spec = _spec(workload="", rate=0.0, msg_len=2,
                     arrival=f"trace:path={path}")
        session = SimulationSession(RunConfig(spec=spec,
                                              backend="reference"))
        assert session.mix.replay_max_len == 9
