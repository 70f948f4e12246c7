"""Closed-loop application engine: sources, spatial model, workloads,
engine feedback, axis validation and backend equivalence.

The open-loop golden fixtures pin that ``window=0`` (the default) stays
byte-identical; this module covers the closed half: reactive sources
that stall on their in-flight window, the directory request/reply round
trip, barrier-synchronised phases, the completion-time accounting in
``summary.extra["classes"]``, how the array engine's kernel fires
the sources -- and the contract that both engines produce identical
bytes for all of it.  The differential corpus
(``tests/test_differential.py``) runs the closed loops
(:data:`differential.CLOSED_LOOP_CASES` and
:data:`differential.CUSTOM_CLOSED_LOOPS`) under the engine's stress
settings too.
"""

import ctypes
import hashlib
import random
from unittest import mock

import numpy as np
import pytest
from differential import (CLOSED_LOOP_CASES, CUSTOM_CLOSED_LOOPS,
                          custom_workload, make_config, run_summaries)
from helpers import CountingRandom
from hypothesis import given, settings, strategies as st

from repro.core.api import build_network
from repro.core.collector import aggregate_class_blocks
from repro.sim import ckernel
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
# the calendar: generate() pops what fires() would have polled
# ----------------------------------------------------------------------
class _Feedback:
    """The engine's half of the calendar protocol, on a script: quota
    restarts at the head of a cycle, credits after it; whoever makes a
    source eligible re-arms it."""

    def __init__(self, mix=None):
        self.mix = mix
        self.closed_k = range(len(TestCalendar.CLASSES))
        self.fired = []

    def begin_cycle(self, now):
        pass

    def issue(self, node, k, now):
        self.fired.append((now, (node, k)))

    def restart(self, srcs, now):
        for i, src in enumerate(srcs):
            if src.quota_left >= 0:
                src.quota_left = 3
                if self.mix is not None:
                    self.mix.arm(i, now)

    def credit(self, srcs, i, now):
        srcs[i].outstanding -= 1
        if self.mix is not None:
            self.mix.arm(i, now + 1)


class TestCalendar:
    CLASSES = [TrafficClass(f"c{k}", rate=rate, msg_len=2,
                            arrival=f"closedloop:window={window}")
               for k, (rate, window) in enumerate(
                   (r, w) for r in (0.0, 1e-7, 1e-6, 0.012, 0.5, 1.0)
                   for w in (1, 4))]

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1),
           p_credit=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
           p_restart=st.sampled_from((0.0, 0.02, 0.3)),
           start=st.integers(0, 5000),
           block=st.sampled_from((1, 7, 64, 2048)))
    def test_calendar_equals_polling(self, seed, p_credit, p_restart,
                                     start, block):
        """96 sources (rate x window x node; odd nodes phased, quota 3)
        under a random credit-return and phase-restart script, polled
        through ``fires()`` and driven through the mix's calendar: same
        (cycle, token) firings, same ``arrivals`` / ``outstanding`` /
        ``quota_left`` after every cycle.  Short calendar blocks make
        armed sources stop at a block end and draw on at the next fill;
        at the tiny rates an unbounded ``arm`` would draw millions."""
        sides = []
        net, _ = build_network("quarc", 8)
        per_node = len(self.CLASSES)
        for calendar in (False, True):
            mix = TrafficMix(net, seed=seed, classes=self.CLASSES)
            fb = _Feedback(mix if calendar else None)
            mix.attach_closedloop(fb)
            for i, src in enumerate(mix._injectors):
                if (i // per_node) % 2:
                    src.quota_left = 3
            sides.append((mix, fb))
        script = random.Random(seed)
        with mock.patch("repro.traffic.mix.CALENDAR_BLOCK", block):
            self._drive(sides, script, start, p_credit, p_restart)
        assert sides[0][1].fired == sides[1][1].fired
        assert len(sides[0][1].fired) > 30

    @staticmethod
    def _drive(sides, script, start, p_credit, p_restart):
        for now in range(start, start + 400):
            restart = script.random() < p_restart
            for mix, fb in sides:
                if restart:
                    fb.restart(mix._injectors, now)
                if fb.mix is not None:
                    mix.generate(now)
                else:
                    for tok, src in zip(mix.tokens, mix._injectors):
                        if src.fires():
                            fb.issue(*tok, now)
            state = [[(s.arrivals, s.outstanding, s.quota_left)
                      for s in mix._injectors] for mix, _ in sides]
            assert state[0] == state[1], now
            busy = [i for i, s in enumerate(state[0]) if s[1]]
            for i in busy:
                if script.random() < p_credit:
                    for mix, fb in sides:
                        fb.credit(mix._injectors, i, now)

    #: sha256 of the ``on_inject`` tap stream (quarc16, seed 9, 2 500
    #: cycles), recorded from ``--backend reference`` at the last commit
    #: whose ``generate`` polled ``fires()`` every cycle
    TAPS = {
        "cache_coherence:window=4": "9a7106445b6f398c",
        "cache_coherence:storms=true,window=4": "42c8b3bbde7b37f2",
        "allreduce:window=4,quota=12,gap=48": "feef250b79fdb033",
        "allreduce:window=4,quota=12,gap=48,think=0.3": "d8503a54cf040510",
    }

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("workload", list(TAPS))
    def test_tap_stream_is_the_polled_one(self, workload, backend):
        """A reactive mix with open-loop classes beside the closed ones
        injects exactly what per-cycle polling injected."""
        session = SimulationSession(RunConfig(
            spec=closed_spec(workload, cycles=2500), backend=backend))
        taps = []
        session.mix.on_inject = lambda *tap: taps.append(tap)
        session.run()
        session.backend.detach()
        assert len(taps) > 400
        digest = hashlib.sha256(repr(taps).encode()).hexdigest()
        assert digest[:16] == self.TAPS[workload]


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
        with pytest.raises(RuntimeError, match="drawn in blocks"):
            mix._injectors[0].arrivals_in(0, 100)
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
        spec = closed_spec(workload, kind=kind, cycles=1500, warmup=300)
        summaries = run_summaries(RunConfig(spec=spec), ALL_BACKENDS)
        assert all(s == summaries[0] for s in summaries[1:])
        closed_names = [cl.name for cl
                        in resolve_workload(workload, 16).closed]
        for name in closed_names:
            assert summaries[0].extra["classes"][name]["completed"] > 0


# ----------------------------------------------------------------------
# reactive windows: the array engine runs a closed loop windows ahead
# ----------------------------------------------------------------------
class TestReactiveWindows:
    """The array engine injects a closed loop windows ahead and ends a
    window only where Python must act; every corner that could move a
    byte is pinned against the reference (the differential corpus runs
    the same cases through its oracle)."""

    @staticmethod
    def _run(name, spy=None):
        config = make_config(**CLOSED_LOOP_CASES[name])
        session = SimulationSession(config.with_backend("array"))
        if spy is not None:
            spy(session)
        summary = session.run()
        session.backend.detach()
        reference = SimulationSession(config.with_backend("reference"))
        assert summary == reference.run()
        return session

    def test_reply_due_the_cycle_after_its_request(self):
        session = self._run("service0")
        st = session.backend._st
        assert st.sent > 100 and st.calls < session.net.cycle // 2
        assert st.cmask == 15       # delays of one cycle fit any ring

    @pytest.mark.parametrize("name,same_queue", [
        ("spidergon_storms", False), ("quarc_relay_storms", True)])
    def test_relays_and_replies_fold_in_one_cycle(self, name, same_queue,
                                                  monkeypatch):
        """Relay segments regenerated by a cycle's deliveries fold before
        the replies due in the next, which fold before its arrivals: the
        corner must occur at one node (one source queue, under Quarc
        relay broadcasts) for the run to pin it."""
        from repro.sim import array_backend
        stage, hits = array_backend.ArrayBackend._stage, []

        def watching(be, now):
            stage(be, now)
            st = be._st
            relays = {int(be._abuf[i]) for i in range(st.apos, st.an)
                      if be._acyc[i] == now and be._arank[i] == 0}
            replies = {int(be._queue_rows(np.array([h]), np.array([d]))[0])
                       for h, d, _, _ in be.due(now)}
            node = lambda b: be._bufs[b].router.node    # noqa: E731
            at = (relays & replies if same_queue else
                  {node(b) for b in relays} & {node(b) for b in replies})
            hits.append(bool(at))

        monkeypatch.setattr(array_backend.ArrayBackend, "_stage", watching)
        self._run(name)
        assert any(hits)

    def test_barrier_and_phase_restart_end_windows(self):
        """The barrier's completion is heard (its slot's ``RT_HEARD``):
        the window ends after its cycle; the phase restart is the
        engine's next scheduled cycle: a window ends there too."""
        starts, completed, restarted = [], [], []

        def spy(session):
            mix, eng = session.mix, session._closedloop
            inject, done = mix.inject, eng._barrier_completed
            start = eng._start_phase

            def injecting(now, until):
                starts.append(now)
                return inject(now, until)

            mix.inject = injecting
            eng._barrier_completed = lambda now: (completed.append(now),
                                                  done(now))
            eng._start_phase = lambda now: (restarted.append(now),
                                            start(now))

        session = self._run("allreduce", spy)
        assert len(completed) >= 2 and restarted
        assert {t + 1 for t in completed} <= set(starts)
        assert set(restarted) <= set(starts)
        assert session.backend._st.calls < len(set(starts)) + 5


# ----------------------------------------------------------------------
# the kernel fires the sources: a credit never ends a window
# ----------------------------------------------------------------------
def _kernel_arm(state, rate, n):
    """Arm the one source of a bare kernel state at cycle 0, blockend
    ``n``, from generator state ``state`` at think ``rate``; returns its
    firing cycle (-2: none before ``n``), the coins it drew and its
    twister state after, as ``getstate()``."""
    cols = {name: np.array([v], np.int64) for name, v in (
        ("sout", 0), ("swin", 1), ("squota", -1), ("sarm", -1),
        ("sheap", 0))}
    cols["srate"] = np.array([rate])
    cols["smt"] = np.array([state[1]], np.uint32)
    st = ckernel.State(S=1, blockend=n)
    for name, col in cols.items():
        st.bind(name, col)
    ckernel.load_cycle_kernel().repro_arm(ctypes.byref(st), 0, 0)
    return (int(cols["sarm"][0]), st.coins,
            (state[0], tuple(cols["smt"][0].tolist()), state[2]))


class TestKernelSources:
    """On the array engine the kernel applies each credit, reads the
    source's coins and fires its next request itself; Python enters at
    block ends, where the interned requests run out and for phases."""

    @pytest.mark.parametrize("name", list(CLOSED_LOOP_CASES))
    def test_windows_equal_the_reference(self, name):
        config = make_config(**CLOSED_LOOP_CASES[name])
        session = SimulationSession(config.with_backend("array"))
        summary = session.run()
        session.backend.detach()
        assert summary == SimulationSession(
            config.with_backend("reference")).run()
        st = session.backend._st
        phased = "quota" in config.spec.workload
        assert (st.stops[4] > 0) == phased      # feedback: phases only
        # relay tails (delivery) still stop; credits never do
        assert st.calls - st.stops[2] < 30 + 3 * st.stops[4]
        if name != "think1e-5":
            assert st.fired > 100

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 7])
    @pytest.mark.parametrize("index", [0, 1, 623, 624])
    def test_kernel_coins_are_the_generators(self, seed, index):
        """A kernel source's coins are ``random()`` of its generator from
        any index, across twists, and its twister state after them is
        ``getstate()``'s.  Mutants killed: a wrong twist or tempering
        constant, an index off by one, the two words of a coin swapped or
        shifted alike, a coin drawn past the first hit."""
        base = random.Random(seed).getstate()
        state = (base[0], base[1][:-1] + (index,), None)
        py = random.Random()
        py.setstate(state)
        us = [py.random() for _ in range(1500)]     # 3000 words
        assert _kernel_arm(state, 1e-300, 1500) == (-2, 1500, py.getstate())
        for u in us[::97]:
            hit = next((i for i, v in enumerate(us) if v < u), None)
            assert _kernel_arm(state, u, 1500)[:2] == (
                (-2, 1500) if hit is None else (hit, hit + 1))

    @pytest.mark.parametrize("workload", [
        "cache_coherence:window=4", "allreduce:window=4,quota=12,gap=48,"
                                    "think=0.3"], ids=["coherence", "phased"])
    @pytest.mark.parametrize("drain", [False, True], ids=["run", "drain"])
    def test_kernel_draws_the_references_coins(self, workload, drain):
        """After a closed-loop run -- or run, drain, run -- every source's
        generator is where the reference leaves it (the kernel gives its
        twister state back) and the kernel drew exactly the coins the
        reference read."""
        spec = closed_spec(workload, cycles=1200, warmup=200, seed=3)
        out = []
        for backend in ("reference", "array"):
            session = SimulationSession(RunConfig(spec=spec,
                                                  backend=backend))
            be, mix = session.backend, session.mix
            srcs = [src for src in mix._injectors if src.reactive]
            for src in srcs:
                src.rng = CountingRandom(src.rng)
            be.run_mix(mix, 500)
            if drain:
                be.drain()
            be.run_mix(mix, 700)
            be.detach()
            out.append(([src.rng.getstate() for src in srcs],
                        sum(src.rng.reads for src in srcs)))
        assert out[0][0] == out[1][0]
        assert out[0][1] == be._st.coins > 1000 and out[1][1] == 0

    @pytest.mark.parametrize("workload,cut", [
        ("cache_coherence:window=4", 400),
        ("allreduce:window=4,quota=12,gap=48", 346)],     # inside a phase
        ids=["coherence", "phased"])
    def test_resync_keeps_the_kernels_transactions(self, workload, cut):
        """``materialize()`` + ``resync()`` mid-run re-adopts each packet
        in flight under its aid, so a kernel transaction keeps its reply
        and its credit, and the sources keep the kernel's twister state:
        summary, completions, outstanding requests and generator states
        are the reference's."""
        spec = closed_spec(workload, cycles=1500, warmup=200, seed=3)
        out = []
        for backend in ("reference", "array"):
            session = SimulationSession(RunConfig(spec=spec,
                                                  backend=backend))
            be, mix = session.backend, session.mix
            be.run_mix(mix, cut)
            if backend == "array":
                be.materialize()
                be.resync()
            be.run_mix(mix, 1500 - cut)
            be.detach()
            out.append((session.summary(), mix._cl_engine.completed,
                        [(src.outstanding, src.rng.getstate())
                         for src in mix._injectors if src.reactive]))
        assert out[0] == out[1]

    @pytest.mark.parametrize("name", ["dense", "dense_warmup", "reversed"])
    def test_request_broadcast_and_reply_share_a_queue(self, name,
                                                       monkeypatch):
        """The fold-order corner: in one cycle one source queue gets a
        reply due, a request the kernel fired (its class's rank) and an
        invalidation broadcast staged by the mix (the other class's) --
        in ``dense_warmup`` at the warmup cycle."""
        from repro.sim import array_backend as ab
        seen = {"fire": set(), "cont": set(), "inv": set()}
        replay, put = ab.ArrayBackend._replay, ab.ArrayBackend._put

        def replaying(be, events):
            it = iter(events)
            for key, word in zip(it, it):
                kind, t = key & 7, key >> 3
                if kind in (ab.EV_FIRE, ab.EV_CONT):
                    aid = word >> ab.SRC_BITS if kind == ab.EV_FIRE else word
                    b = be._queue_rows(be._psrc[aid:aid + 1],
                                       be._pdst[aid:aid + 1])[0]
                    seen["fire" if kind == ab.EV_FIRE else "cont"].add(
                        (t, int(b)))
            replay(be, events)

        def putting(be, key, abuf, aaid):
            inv = ab.RANK_CLASS + [c.name for c in
                                   be._eng.mix.classes].index("inv")
            seen["inv"].update((int(k) >> ab.RANK_BITS, int(b)) for k, b
                               in zip(key, abuf)
                               if int(k) & ab.RANK_OTHER == inv)
            put(be, key, abuf, aaid)

        monkeypatch.setattr(ab.ArrayBackend, "_replay", replaying)
        monkeypatch.setattr(ab.ArrayBackend, "_put", putting)
        if name.startswith("dense"):
            config = make_config(**CLOSED_LOOP_CASES[name])
            SimulationSession(config.with_backend("array")).run()
        else:
            config = make_config(kind="quarc", n=16, msg_len=4, beta=0.0,
                                 rate=1.0, cycles=900, warmup=200, seed=5,
                                 workload="cache_coherence:window=4")
            with custom_workload(CUSTOM_CLOSED_LOOPS[name]):
                SimulationSession(config.with_backend("array")).run()
        shared = seen["fire"] & seen["cont"] & seen["inv"]
        assert shared
        if name == "dense_warmup":
            assert config.spec.warmup in {t for t, _ in shared}
