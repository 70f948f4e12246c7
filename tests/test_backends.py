"""Backend equivalence and array-engine correctness.

The central contract: for any seed and :class:`RunConfig`, the
``array`` backend must produce a :class:`RunSummary` *identical* (full
dataclass equality, floats included) to the ``reference`` backend --
deliveries, latency means, CIs, flits moved, saturation flags, drain
cycles.  The reference backend is ``Network.step`` itself, so this
pins the optimized engine to the seed semantics.  The differential
corpus (``tests/test_differential.py``) checks it across topologies,
loads, workloads and the engine's stress settings; pinned here are a
small run per topology, a saturated one, the relay ablation, the
drains, a run resumed after a drain, the fast-forward and the engine's
own machinery.
"""

import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest

from helpers import one_cycle_segments
from repro.core.api import NETWORK_KINDS, build_network
from repro.noc.buffers import EMPTY
from repro.noc.packet import UNICAST, Packet
from repro.sim.array_backend import S_IDLE
from repro.sim.backend import BACKENDS, ArrayBackend, make_backend
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.arrival import BernoulliInjector
from repro.traffic.mix import TrafficMix
from repro.traffic.workload import WorkloadSpec

ALL_BACKENDS = sorted(BACKENDS)     # reference + every optimized engine


def _summaries(spec, backends=ALL_BACKENDS, **cfg):
    out = []
    for backend in backends:
        session = SimulationSession(
            RunConfig(spec=spec, backend=backend, **cfg))
        out.append(session.run())
    return out


class TestBackendEquivalence:
    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_identical_summaries(self, kind, beta):
        spec = WorkloadSpec(kind=kind, n=8, msg_len=4, beta=beta,
                            rate=0.02, cycles=2000, warmup=400, seed=11)
        sums = _summaries(spec)
        assert all(s == sums[0] for s in sums[1:]), ALL_BACKENDS

    def test_identical_under_load(self):
        """Near saturation the array kernel arbitrates every port every
        cycle."""
        spec = WorkloadSpec(kind="spidergon", n=8, msg_len=16, beta=0.0,
                            rate=0.5, cycles=1500, warmup=300, seed=3)
        sums = _summaries(spec)
        assert all(s == sums[0] for s in sums[1:]), ALL_BACKENDS
        assert sums[0].saturated

    def test_identical_quarc_relay_ablation(self):
        """The re-injection path (adapter pushes during commit) too."""
        spec = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.3,
                            rate=0.03, cycles=1500, warmup=300, seed=5)
        sums = _summaries(spec, bcast_mode="relay")
        assert all(s == sums[0] for s in sums[1:]), ALL_BACKENDS
        assert sums[0].bcast_samples > 0

    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    def test_identical_drain_cycles(self, kind):
        drains = []
        for backend in ALL_BACKENDS:
            net, _ = build_network(kind, 8)
            be = make_backend(backend, net)
            for src, dst in ((0, 5), (3, 1), (6, 2)):
                net.adapters[src].send(
                    Packet(src, dst, 6, UNICAST, created=0), 0)
            drains.append((be.drain(), net.deliveries, net.flits_moved))
        assert all(d == drains[0] for d in drains[1:]), ALL_BACKENDS

    @pytest.mark.parametrize("workload,generated", [
        ("", 1183), ("cache_coherence", 312),
        ("cache_coherence:storms=true", 297),
        ("cache_coherence:window=4", 571)],
        ids=["single", "coherence", "storms", "closed"])
    def test_run_drain_run(self, workload, generated, engines_built):
        """Arrivals drawn for cycles a drain ran without traffic are
        dropped on both engines (the counts are the reference's since
        the seed), and the resumed run agrees summary for summary.  A
        dropped single-class arrival spends no β coin or destination:
        the seed's reference moved 24 920 flits at a mean unicast
        latency of 7.712432.  A closed loop strands nothing: the drain
        sends every reply the network owes at its cycle, and a source
        whose firing it dropped is armed again."""
        load = dict(beta=0.0, rate=1.0) if workload else dict(beta=0.1,
                                                              rate=0.05)
        spec = WorkloadSpec.parse(kind="quarc", n=16, msg_len=4, cycles=700,
                                  warmup=200, seed=3, workload=workload,
                                  **load)
        out = []
        for backend in ("reference", "array"):
            session = SimulationSession(RunConfig(spec=spec,
                                                  backend=backend))
            be, mix = session.backend, session.mix
            be.run_mix(mix, 700)
            assert be.drain() > 0
            assert session.net.total_flits() == 0   # no reply owed
            be.run_mix(mix, 700)
            assert mix.generated_total == generated
            out.append(session.summary())
            due = {i for lst in mix.calendar.values() for i in lst}
            kern = mix.kernel       # the array engine's sources: its own
            for i, src in enumerate(mix._injectors):
                if src.reactive and src.outstanding < src.window:
                    if kern is not None:
                        assert kern._sarm[kern._sof[i]] != S_IDLE
                    else:
                        assert src.armed and (i in due or i in mix._resume)
        assert engines_built == [BACKENDS["reference"], ArrayBackend]
        assert out[0] == out[1]
        if not workload:
            assert out[0].flits_moved == 24920
            assert round(out[0].unicast_mean, 6) == 7.712432

    def test_zero_rate_fast_forward(self):
        """An empty network fast-forwards; clock and counters agree."""
        spec = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.0,
                            rate=0.0, cycles=5000, warmup=500, seed=1)
        sums = _summaries(spec)
        assert all(s == sums[0] for s in sums[1:]), ALL_BACKENDS
        assert sums[-1].generated_msgs == 0
        assert sums[-1].flits_moved == 0

    def test_unknown_backend_rejected(self):
        net, _ = build_network("quarc", 8)
        with pytest.raises(ValueError, match="unknown simulation backend"):
            make_backend("warp", net)
        spec = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.0,
                            rate=0.01, cycles=200, warmup=50)
        for name in ("warp", "active"):     # no alias for the deleted tier
            with pytest.raises(ValueError, match="unknown simulation"):
                RunConfig(spec=spec, backend=name)


class TestArrayBackend:
    def test_adopts_and_detaches_state_ownership(self):
        net, _ = build_network("quarc", 8)
        be = make_backend("array", net)
        assert isinstance(be, ArrayBackend)
        assert net.state_owner is be
        assert all(b.sink is be._staged for b in net.iter_buffers())
        be.detach()
        assert net.state_owner is None
        assert all(b.sink is None for b in net.iter_buffers())

    def test_second_attach_rejected(self):
        net, _ = build_network("quarc", 8)
        be = ArrayBackend(net)
        with pytest.raises(ValueError, match="already attached"):
            ArrayBackend(net)
        be.detach()
        ArrayBackend(net)               # fine after detach

    def test_engaged_at_every_size(self):
        """No minimum-size floor: even an 8-node network runs on the
        arrays."""
        for kind in NETWORK_KINDS:
            net, _ = build_network(kind, 8)
            be = ArrayBackend(net)
            assert net.state_owner is be, kind
            be.detach()

    def test_preloaded_network_is_packed(self):
        """Flits already in flight at attach time enter the arrays."""
        net, _ = build_network("spidergon", 8)
        net.adapters[0].send(Packet(0, 4, 4, UNICAST, created=0), 0)
        be = ArrayBackend(net)
        assert be._inflight == 4
        be.drain()
        assert net.deliveries == 1
        assert be._inflight == 0 and be.in_flight() == 0

    def test_network_step_delegates_to_engine(self):
        """While attached, ``net.step()`` / ``net.total_flits()`` ARE
        the engine -- there is no bypass path that could stale state."""
        net, _ = build_network("quarc", 8)
        be = ArrayBackend(net)
        net.adapters[0].send(Packet(0, 4, 4, UNICAST, created=0), 0)
        assert net.total_flits() == 4
        drained = net.drain()           # drives owner.step throughout
        assert drained > 0
        assert net.deliveries == 1
        assert be._inflight == 0

    def test_detach_restores_reference_path(self):
        net, _ = build_network("quarc", 8)
        be = ArrayBackend(net)
        be.detach()
        net.adapters[0].send(Packet(0, 3, 2, UNICAST, created=0), 0)
        assert net.drain() > 0          # reference path unaffected

    def test_materialized_view_matches_arrays(self):
        """After a saturated run, the lazily-materialised object graph
        must agree with the arrays on every piece of state -- and so
        must ``state_digest``, the lockstep harness's O(1) reading."""
        from differential import _digest
        spec = WorkloadSpec(kind="quarc", n=16, msg_len=8, beta=0.0,
                            rate=0.1, cycles=600, warmup=100, seed=7)
        session = SimulationSession(RunConfig(spec=spec, backend="array"))
        session.run()
        be = session.backend
        from_arrays = _digest(session.net)
        be.materialize()
        for b, buf in enumerate(be._bufs):
            assert int(be._qlen[b]) == len(buf.q), buf
            assert bool(be._ne[b]) == (len(buf.q) > 0), buf
            streaming = int(be._want[b]) >= 0 and not be._hdrf[b]
            assert (buf.cur_out is not None) == streaming, buf
            if streaming:
                assert buf.cur_out is be._ports[int(be._want[b])], buf
                assert buf.cur_vc == int(be._vcreq[b]), buf
        total = 0
        for pi, port in enumerate(be._ports):
            nf = len(port.feeders)
            assert port.rr == (int(be._rr[pi]) % nf if nf else 0), port
            assert port.flits_sent == int(be._fs[pi]), port
            for vc in (0, 1):
                o = int(be._owner[2 * pi + vc])
                assert port.owner[vc] is (
                    be._bufs[o] if o >= 0 else None), port
        for r in session.net.routers:
            assert r.flits == sum(len(bb.q) for bb in r.in_bufs), r
            total += r.flits
        assert total == be._inflight > 0
        be.detach()             # the objects own the state from here
        assert _digest(session.net) == from_arrays
        assert any(row[2] for row in from_arrays[3])    # latches seen

    def test_resync_escape_hatch(self):
        """Documented contract: materialize(), mutate the object graph,
        resync() -- the arrays re-adopt the edited state."""
        net, _ = build_network("quarc", 8)
        be = ArrayBackend(net)
        be.materialize()
        buf = net.routers[0].in_bufs[0]         # a local injection queue
        sink, buf.sink = buf.sink, None         # object-graph edit
        buf.push_packet(Packet(0, 4, 3, UNICAST, created=0))
        buf.sink = sink
        be.resync()
        assert be._inflight == 3
        be.drain()
        assert net.deliveries == 1

    def test_clock_clamps_like_reference(self):
        net, _ = build_network("quarc", 8)
        ArrayBackend(net).step(10)
        assert net.cycle == 11
        net.step(2)
        assert net.cycle == 12

    @staticmethod
    def _warns_once_and_runs_reference(match, in_message):
        """An ``array`` session warns exactly once (``match``,
        ``in_message``) and runs ``reference``; a second load is silent,
        a directly built engine refuses by name and the summary equals
        ``reference``."""
        import warnings

        from repro.sim import ckernel

        spec = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.1,
                            rate=0.05, cycles=500, warmup=100, seed=5)
        with pytest.warns(RuntimeWarning, match=match) as rec:
            session = SimulationSession(RunConfig(spec=spec,
                                                  backend="array"))
        assert len(rec) == 1 and in_message in str(rec[0].message)
        assert "sessions run the reference backend" in str(rec[0].message)
        assert session.backend.name == "reference"
        got = session.run()
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the second load is silent
            assert ckernel.load_cycle_kernel() is None
            with pytest.raises(ValueError, match="--backend reference"):
                ArrayBackend(build_network("quarc", 8)[0])
        assert got == _summaries(spec, ["reference"])[0]

    def test_failed_kernel_compile_warns_once_and_still_agrees(
            self, monkeypatch):
        """A broken toolchain leaves ``reference`` in charge: one
        RuntimeWarning per process carrying the compiler's stderr, and
        the summary the oracle's."""
        import subprocess

        from repro.sim import ckernel

        def broken():
            raise subprocess.CalledProcessError(
                1, ["cc"], stderr=b"cc: fatal error: no toolchain here")

        monkeypatch.setattr(ckernel, "_compile_and_load", broken)
        monkeypatch.setattr(ckernel, "_cached", None)
        monkeypatch.setattr(ckernel, "_failed", False)
        self._warns_once_and_runs_reference("no toolchain here",
                                            "fatal error")

    def test_drifted_state_layout_is_refused(self, monkeypatch):
        """The Python and C sides of the state struct must agree byte
        for byte; a kernel whose ``repro_state_size()`` differs is not
        called -- one warning, ``reference``, same results."""
        import ctypes
        import warnings

        from repro.sim import ckernel

        class Drifted(ctypes.Structure):
            _fields_ = ckernel.State._fields_ + [("extra", ctypes.c_int64)]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if ckernel.load_cycle_kernel() is None:
                pytest.skip("compiled cycle kernel unavailable")
        monkeypatch.setattr(ckernel, "State", Drifted)
        monkeypatch.setattr(ckernel, "_cached", None)
        monkeypatch.setattr(ckernel, "_failed", False)
        self._warns_once_and_runs_reference("drifted apart",
                                            "repro_state is")

    def test_state_fields_are_the_c_struct_fields(self):
        """``repro_state_size()`` cannot see two same-size fields swapped
        or misplaced: the typedef's field names, in order, are
        ``State``'s."""
        import re

        from repro.sim import ckernel

        with open(ckernel._SRC_PATH) as fh:
            body = re.search(r"typedef struct \{([^{}]*)\} repro_state;",
                             fh.read()).group(1)
        body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
        names = [re.search(r"\w+", part).group()
                 for decl in body.split(";") if decl.strip()
                 for part in re.sub(r"^\s*(const\s+)?\w+\s+", "",
                                    decl).split(",")]
        assert names == [name for name, _ in ckernel.State._fields_]
        # the route table's per-buffer decode, next to the table
        k = names.index("rtab")
        assert names[k:k + 4] == ["rtab", "rrow", "rsh", "pbase"]
        # continuations: the packet's reply word, the arrival rows' rank,
        # the due ring and the queue table a reply is sent from
        k = names.index("popx")
        assert names[k:k + 3] == ["popx", "psrc", "pcont"]
        k = names.index("acyc")
        assert names[k:k + 7] == ["acyc", "abuf", "aaid", "arank", "cring",
                                  "qfirst", "qrel"]
        from repro.sim.array_backend import STOPS
        assert dict(ckernel.State._fields_)["stops"]._length_ == len(STOPS)
        assert {"cmask", "ncont", "contflits", "heard", "sent"} <= set(names)
        # the closed-loop sources: scalars, then the per-source columns
        # after the queue table (``array_backend._SCOLS``), then the
        # rates and the twister rows; the coins drawn after the firings
        from repro.sim.array_backend import _SCOLS
        k = names.index("S")
        assert names[k:k + 5] == ["S", "fireto", "blockend", "nheap",
                                  "phleft"]
        k = names.index("sout")
        assert names[k - 1] == "qrel"
        assert names[k:k + len(_SCOLS) + 2] == [*_SCOLS, "srate", "smt"]
        assert names[names.index("sent") + 1:][:2] == ["fired", "coins"]

    @pytest.mark.skipif(not hasattr(os, "getuid"),
                        reason="no POSIX ownership to check")
    def test_kernel_cache_others_can_write_is_not_loaded(
            self, monkeypatch, tmp_path):
        """The cache lives under the shared temp dir: a directory (or
        library) someone else could have written must be refused -- one
        warning naming the path, ``reference``, same results."""
        import stat
        import tempfile
        import warnings

        from repro.sim import ckernel

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        monkeypatch.setattr(ckernel, "_cached", None)
        monkeypatch.setattr(ckernel, "_failed", False)
        libdir = tmp_path / "repro-ckernel"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if ckernel.load_cycle_kernel() is None:
                pytest.skip("compiled cycle kernel unavailable")
        # a fresh cache is private and passes its own check
        assert stat.S_IMODE(libdir.stat().st_mode) == 0o700

        libdir.chmod(0o777)
        monkeypatch.setattr(ckernel, "_cached", None)
        self._warns_once_and_runs_reference("refusing to load",
                                            str(libdir))

    def test_cache_tag_keys_the_compile_command(self, monkeypatch):
        """The cache tag hashes the compile command with the source, so
        a changed flag or compiler never loads a stale library; and the
        flags forbid the FMA contraction that would round the kernel's
        receipt accumulator differently from Python's."""
        from repro.sim import ckernel

        assert "-ffp-contract=off" in ckernel.CFLAGS
        tag = ckernel.source_hash()
        with monkeypatch.context() as m:
            m.setattr(ckernel, "CFLAGS", (*ckernel.CFLAGS, "-DNDEBUG"))
            assert ckernel.source_hash() != tag
        with monkeypatch.context() as m:
            m.setenv("CC", "another-cc")
            assert ckernel.source_hash() != tag
        assert ckernel.source_hash() == tag

    def test_idle_step_leaves_no_events(self):
        """An idle step runs no cycle, so the last-cycle outputs the
        shard worker harvests must read empty after it -- not hold the
        previous cycle's moves and dateline crossings."""
        net, _ = build_network("torus", 16)
        be = ArrayBackend(net)
        net.adapters[0].send(Packet(0, 5, 1, UNICAST, created=0), 0)
        be.drain()
        assert net.deliveries == 1
        st = be._st
        assert st.moved == 1            # the last busy cycle ejected
        st.ndl = 3                      # as a dateline cycle leaves it
        assert be.step() == 0
        assert st.moved == st.ndl == st.nev == 0

    def test_fold_overflow_raises_naming_the_buffer(self):
        """A row its buffer cannot take is a flow-control bug: the
        kernel's fold stops at it, on the inspection path (``repro_fold``)
        and the cycle path (``repro_run``) alike, and Python names the
        buffer and its capacity."""
        net, _ = build_network("quarc", 8)
        be = ArrayBackend(net)
        b = int(be._queue_rows(0, 4))
        cap = be._cap_py[b]
        be.rows.append((0, 4, cap + 1, None, 0))
        msg = rf"full buffer '{be._bufs[b].label}' \(capacity {cap}\)"
        with pytest.raises(OverflowError, match=msg):
            be.materialize()
        with pytest.raises(OverflowError, match=msg):
            net.step()          # the row is still the next one due
        assert be._inflight == 0


class TestQueuesOnDemand:
    """On the array path flits live in the engine's rings, never in a
    ``FlitBuffer``: a buffer holds the shared empty queue until a flit is
    pushed into it, and ``materialize`` builds queues only for rows with
    flits.  Kills the mutant ``self.q = deque()`` in
    ``FlitBuffer.__init__`` (one queue per buffer, 4 608 at N = 384).

    A healthy array session runs and summarises with no router, buffer
    or port object at all (``Network.built`` stays ``None``), equal to
    the reference.  Kills the mutants "eager build in ``build_network``"
    (``net.routers`` read there), "``_adopt`` reads the objects on a
    fresh attach", "``_build_static`` asks the network's routers" and
    "``Adapter._push`` always reaches the buffer object" (Spidergon and
    Quarc relay segments, torus and mesh broadcasts are objects pushed
    by the adapters)."""

    @pytest.mark.parametrize("kind,beta,mode", [
        pytest.param("quarc", 0.1, "clone", id="quarc-0.1"),
        pytest.param("quarc", 0.1, "relay", id="quarc-0.1-relay"),
        pytest.param("spidergon", 0.0, "clone", id="spidergon-0.0"),
        pytest.param("spidergon", 0.1, "clone", id="spidergon-0.1"),
        pytest.param("mesh", 0.1, "clone", id="mesh-0.1"),
        pytest.param("torus", 0.1, "clone", id="torus-0.1")])
    def test_array_run_holds_no_queue(self, kind, beta, mode):
        spec = WorkloadSpec(kind=kind, n=16, msg_len=4, beta=beta,
                            rate=0.03, cycles=1500, warmup=300, seed=5)
        arr = SimulationSession(RunConfig(spec=spec, backend="array",
                                          bcast_mode=mode))
        ref = SimulationSession(RunConfig(spec=spec, backend="reference",
                                          bcast_mode=mode))
        assert arr.run() == ref.run()
        assert arr.net.built is None, kind      # no object was built
        bufs = arr.net.iter_buffers()           # built by this read
        assert arr.net.built == (1500, "test access")
        assert all(b.q is EMPTY for b in bufs), kind
        assert arr.net.total_flits() > 0        # the drain has work
        # the object view takes queues where the engine holds flits, is
        # the reference's state at the same cycle, and the reference
        # loop drains it as it drains its own run
        rows = arr.backend._qlen[:len(bufs)].tolist()
        arr.backend.detach()
        assert [b.q is not EMPTY for b in bufs] == [q > 0 for q in rows]
        assert arr.net.state_snapshot() == ref.net.state_snapshot()
        for net in (arr.net, ref.net):
            net.drain()
        totals = [(s.net.cycle, s.net.flits_moved, s.net.deliveries,
                   s.net.adapters[0].collector.delivered_unicast)
                  for s in (arr, ref)]
        assert totals[0] == totals[1], kind


class TestObjectsOnDemand:
    """The network builds its object graph the first time something
    reads it, records when and why (``Network.built``), and a graph
    first built while an engine is attached stages its pushes with the
    engine."""

    @staticmethod
    def _send_and_drain(backend, build_first):
        net, _ = build_network("quarc", 16)
        be = make_backend(backend, net)
        for _ in range(3):
            net.step()
        if build_first:
            net.routers             # first built here, while attached
        net.adapters[3].send(Packet(3, 9, 4, UNICAST), net.cycle)
        net.drain()
        coll = net.adapters[0].collector
        out = (net.cycle, net.flits_moved, net.deliveries,
               coll.delivered_unicast, coll.unicast.overall.mean)
        return out, net, be

    @pytest.mark.parametrize("build_first", [False, True])
    def test_send_after_attach_reaches_the_engine(self, build_first):
        """``adapters[k].send(Packet)`` after attach: staged by its queue's
        row while the graph is unbuilt (building nothing), through the
        buffer's ``sink`` once a read built it.  Kills the mutant "no
        ``sink`` on a lazy build" (``Network.routers`` installs no
        staging list: the flits land in a ``deque`` the engine never
        reads, and nothing is delivered)."""
        got, net, be = self._send_and_drain("array", build_first)
        want = self._send_and_drain("reference", build_first)[0]
        assert got == want and got[3] == 1
        if build_first:
            assert net.built == (3, "test access")
            assert all(b.sink is be._staged for b in net.iter_buffers())
        else:
            assert net.built is None

    def test_python_route_builds_the_graph(self):
        """A Quarc multicast header is routed by its router in Python
        (no table column holds its bitstring): the graph is built then,
        for ``python_route``, and the run stays the reference's."""
        out = []
        for backend in ("array", "reference"):
            net, _ = build_network("quarc", 16)
            make_backend(backend, net)
            net.step()
            op = net.adapters[2].send_multicast([5, 7, 11], 4, net.cycle)
            net.drain()
            out.append((net.cycle, net.deliveries, op.completed_at,
                        op.deliveries, net.built))
        assert out[0][:4] == out[1][:4]
        assert out[0][4] == (1, "python_route")
        assert out[1][4] == (0, "test access")  # the reference's step

    def test_faulted_run_builds_it_for_its_fault_state(self):
        spec = WorkloadSpec(kind="quarc", n=16, msg_len=4, beta=0.0,
                            rate=0.02, cycles=1200, warmup=200, seed=7,
                            faults="links:down=2@cycle=200")
        arr = SimulationSession(RunConfig(spec=spec, backend="array"))
        ref = SimulationSession(RunConfig(spec=spec, backend="reference"))
        assert arr.net.built == (0, "fault event")
        assert arr.run() == ref.run()


class TestEnvironmentToggles:
    def test_every_toggle_the_source_reads_is_documented(self):
        """The ``REPRO_*`` names under ``src/repro`` are exactly the
        rows of the "Environment toggles" table in the sim README, so a
        toggle can neither appear undocumented nor outlive its code."""
        import pathlib
        import re

        import repro
        root = pathlib.Path(repro.__file__).parent
        in_source = set()
        for path in root.rglob("*.py"):
            in_source.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        readme = (root / "sim" / "README.md").read_text()
        section = readme.split("## Environment toggles", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)", section,
                                    re.MULTILINE))
        assert documented == in_source

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads through Linux's /proc")
    @pytest.mark.parametrize("given,threads", [(None, "1"), ("3", "3")])
    def test_import_starts_no_blas_threads(self, given, threads):
        """``import repro`` defaults OpenBLAS to one thread, so numpy's
        import starts no idle worker pool; a value the user set stays."""
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        out = subprocess.run(
            [sys.executable, "-c",
             "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'], "
             "len(os.listdir('/proc/self/task')))"],
            env=env, capture_output=True, text=True, check=True).stdout
        value, tasks = out.split()
        assert value == threads
        if given is None:
            assert tasks == "1"


class TestGeometricInjector:
    def test_bulk_matches_per_cycle(self):
        """Blocks of any length consume the stream like one-cycle
        segments."""
        a = BernoulliInjector(0.07, random.Random(42))
        b = BernoulliInjector(0.07, random.Random(42))
        per_cycle = one_cycle_segments(a, 5000)
        bulk = (b.arrivals_in(0, 1234) + b.arrivals_in(1234, 1235)
                + b.arrivals_in(1235, 5000))
        assert per_cycle == bulk
        assert a.arrivals == b.arrivals
        assert a._gap == b._gap        # resumable from the same state

    def test_tiny_rate_does_not_divide_by_zero(self):
        """Regression: rates below float epsilon made log(1-rate) == 0,
        and a subnormal rate an infinite gap ``int()`` cannot take."""
        for rate in (1e-17, 5e-324):
            inj = BernoulliInjector(rate, random.Random(0))
            assert inj.arrivals_in(0, 1) == []
            assert inj.arrivals_in(1, 10_000) == []

    def test_window_loop_matches_one_cycle_calendar(self):
        """The array engine's windows read the calendar a block
        ahead; the reference loop drawing it one cycle at a time (what
        per-cycle polling computed) injects the same traffic."""
        nets = [build_network("quarc", 8)[0] for _ in range(2)]
        mixes = [TrafficMix(n, 0.05, 4, beta=0.2, seed=9) for n in nets]
        with mock.patch("repro.traffic.mix.CALENDAR_BLOCK", 1), \
                mock.patch("repro.traffic.mix.BLOCK_ARRIVALS", 0):
            for t in range(600):
                mixes[0].generate(t)
                nets[0].step(t)
        be = make_backend("array", nets[1])
        be.run_mix(mixes[1], 600)
        be.detach()
        assert mixes[0].generated_total > 100
        assert mixes[0].generated_unicasts == mixes[1].generated_unicasts
        assert mixes[0].generated_broadcasts == mixes[1].generated_broadcasts
        assert nets[0].flits_moved == nets[1].flits_moved
        assert nets[0].deliveries == nets[1].deliveries


class TestMonotonicTime:
    def test_lagging_now_is_clamped(self):
        """Regression: an external clock running behind ``net.cycle``
        (e.g. a caller's own counter after a drain) must not rewind
        time."""
        net, _ = build_network("quarc", 8)
        net.step(10)                   # external fast-forward: fine
        assert net.cycle == 11
        net.step(3)                    # lagging now: clamped, not rewound
        assert net.cycle == 12
        net.step()
        assert net.cycle == 13

    def test_drain_after_external_clock_is_nonnegative(self):
        net, _ = build_network("quarc", 8)
        net.adapters[0].send(Packet(0, 4, 4, UNICAST, created=0), 0)
        for _ in range(5):
            net.step()                 # local clock at 5
        for t in (1, 2, 3):            # external clock starts behind!
            net.step(t)                # would have rewound net.cycle
        assert net.cycle >= 5
        cycles = net.drain()
        assert cycles >= 0
        assert net.total_flits() == 0


def _array_run(spec, cut=None, handback=None, **cfg):
    """Run ``spec`` on the array engine; returns the summary, the final
    ``state_digest`` and ``state_snapshot`` and the engine.  With ``cut``
    the run stops there for ``handback`` (``"materialize"`` or
    ``"detach"``) and ``resync`` before the rest."""
    session = SimulationSession(RunConfig(spec=spec, backend="array", **cfg))
    be, mix = session.backend, session.mix
    if cut is None:
        summary = session.run()
    else:
        probes = session._probe_schedule()
        be.run_mix(mix, cut, probes)
        getattr(be, handback)()
        be.resync()
        be.run_mix(mix, spec.cycles - cut, probes)
        summary = session.summary()
    return summary, be.state_digest(), session.net.state_snapshot(), be


class TestPacketCompaction:
    """Packet slots follow the packets alive.  Forced (``_COMPACT_MIN`` 0:
    the table starts empty), every interning entry sweeps whatever is
    dead onto the free list; the ``compact`` stress setting runs the
    differential corpus so (``tests/test_differential.py``).  Pinned
    here: a hand-back between sweeps, shard workers' gids, the goldens,
    the conservation checks and the table's bound and report."""

    CASES = {
        "quarc_beta": dict(kind="quarc", n=16, beta=0.1, rate=0.03),
        "coherence": dict(kind="quarc", n=16, beta=0.0, rate=1.0,
                          workload="cache_coherence:window=4"),
    }

    @staticmethod
    def _spec(case, **kw):
        base = dict(msg_len=4, cycles=1500, warmup=300, seed=4)
        base.update(TestPacketCompaction.CASES[case], **kw)
        return WorkloadSpec.parse(**base)

    @staticmethod
    def _forced(monkeypatch, every_entry=True):
        """``_COMPACT_MIN`` 0; with ``every_entry`` each entry that interns
        sweeps, not only one that finds the table full and half dead."""
        from repro.sim import array_backend
        monkeypatch.setattr(array_backend, "_COMPACT_MIN", 0)
        if every_entry:
            monkeypatch.setattr(ArrayBackend, "_make_room",
                                lambda be, k: be._sweep(be._pslots.used))

    def _assert_compacted_equal(self, spec, monkeypatch, **run):
        """A probe every 25 cycles ends a window there: an interning
        entry, and an inspection that folds what is staged."""
        from repro.obs import ObsSpec
        from repro.obs.probes import parse_probe
        run["obs"] = ObsSpec(probes=(parse_probe("inflight:window=25"),))
        ref, = _summaries(spec, ("reference",), obs=run["obs"])
        plain = _array_run(spec, **run)
        self._forced(monkeypatch)
        forced = _array_run(spec, **run)
        assert plain[3]._nsweep == 0 < 30 < forced[3]._nsweep
        assert len(forced[3]._pdst) <= len(plain[3]._pdst)
        assert forced[0] == plain[0] == ref
        assert forced[1] == plain[1]
        assert forced[2] == plain[2]
        return forced[3]

    @pytest.mark.parametrize("handback", ["materialize", "detach"])
    def test_resync_after_a_compaction(self, handback, monkeypatch):
        """A hand-back mid-run keeps each packet's aid through the sweeps
        before and after it (no slot moves), so a kernel transaction keeps
        its reply and its credit."""
        self._assert_compacted_equal(self._spec("coherence"), monkeypatch,
                                     cut=700, handback=handback)

    @pytest.mark.parametrize("kind", ["quarc", "torus"])
    def test_shard_workers_keep_their_gids(self, kind, monkeypatch):
        """A shard worker interns the replicas it receives (its own
        interning entry) and names packets by gid in its halo records:
        the engine keeps every gid'd aid live (``aid_holders``), so the
        sharded run stays the serial one."""
        monkeypatch.setenv("REPRO_SHARD_INPROC", "1")
        spec = WorkloadSpec(kind=kind, n=16, msg_len=4, beta=0.05,
                            rate=0.02, cycles=600, warmup=150, seed=9)
        serial, = _summaries(spec, ("array",))
        self._forced(monkeypatch)
        ran = []
        sweep = ArrayBackend._sweep

        def counted(be, most):
            n = be._nsweep
            sweep(be, most)
            ran.append(be._nsweep - n)

        monkeypatch.setattr(ArrayBackend, "_sweep", counted)
        sharded, = _summaries(spec, ("array",), shard_workers=2)
        assert sharded == serial
        assert sum(ran) > 20

    @pytest.mark.parametrize("every_entry,least", [(False, 10),
                                                    (True, 100)],
                             ids=["full_table", "every_entry"])
    def test_goldens_with_the_constant_forced(self, every_entry, least,
                                              monkeypatch):
        """The 14 pinned summaries, on the array engine compacting from
        its first full table, or at every interning entry."""
        from dataclasses import asdict

        from golden_regen import GOLDEN_CONFIGS
        from test_golden import _assert_matches, _load
        self._forced(monkeypatch, every_entry)
        compactions = 0
        for name, spec, cfg in GOLDEN_CONFIGS:
            session = SimulationSession(RunConfig(spec=spec, backend="array",
                                                  **cfg))
            _assert_matches(asdict(session.run()), _load(name)["summary"],
                            name)
            compactions += session.backend._nsweep
        assert compactions > least

    def test_a_lost_flit_is_named(self, monkeypatch):
        """The mark counts the flits it walks: one missing from the
        in-flight count is a ``ConservationError`` at the next
        compaction, not a quietly wrong table."""
        from repro.sim.array_backend import ConservationError
        self._forced(monkeypatch)
        spec = self._spec("quarc_beta", cycles=400)
        session = SimulationSession(RunConfig(spec=spec, backend="array"))
        be = session.backend
        be.run_mix(session.mix, 200)
        assert be._inflight > 0
        be._live()              # conserved so far
        be._inflight -= 1
        with pytest.raises(ConservationError, match="in flight"):
            be.run_mix(session.mix, 200)

    def test_every_run_ends_conserved(self):
        """Flit conservation is checked at the end of every array run, by
        one mark, not only at a compaction: a flit too many in the
        in-flight count before the last batch is named, though it was
        counted injected too (so the run's flit identity holds)."""
        from repro.sim.array_backend import ConservationError
        session = SimulationSession(RunConfig(
            spec=self._spec("quarc_beta", cycles=400), backend="array"))
        be = session.backend
        be.run_mix(session.mix, 200)        # conserved: no error

        def knock(t):
            be._st.inflight += 1
            be.net.flits_injected += 1

        with pytest.raises(ConservationError, match="in flight"):
            be.run_mix(session.mix, 200, probes={390: knock})
        assert be._nsweep == 0

    def test_a_table_past_the_slot_limit_is_refused(self, monkeypatch):
        """The aid columns are int32: a packet table that would grow past
        ``MAX_PACKET_SLOTS`` raises, naming the field, instead of
        wrapping aids."""
        from repro.sim import array_backend
        monkeypatch.setattr(array_backend, "MAX_PACKET_SLOTS", 1024)
        spec = self._spec("quarc_beta", rate=0.05, cycles=2000)
        session = SimulationSession(RunConfig(spec=spec, backend="array"))
        with pytest.raises(ValueError, match=r"cannot pack packet slots "
                           r"\(the int32 aid columns\) = 2048: the field "
                           r"holds at most 1024"):
            session.run()

    def test_profile_reports_the_table(self, monkeypatch, tmp_path,
                                       capsys):
        """``--profile``'s ``packets:`` line ends with the table's slots,
        the bytes of one, the ones live now and the compactions; the
        metrics header carries the same."""
        from repro.cli import main
        self._forced(monkeypatch)
        path = tmp_path / "run.metrics.jsonl"
        assert main(["run", "--kind", "quarc", "-n", "16", "-M", "4",
                     "--rate", "0.03", "--cycles", "1500", "--warmup",
                     "300", "--profile", "--probe", "inflight:window=100",
                     "--metrics-out", str(path)]) == 0
        out = capsys.readouterr().out
        table = json.loads(path.read_text().splitlines()[0])["packet_table"]
        assert table["compactions"] > 5
        assert table["live"] < table["slots"] < 1024
        assert table["slot_bytes"] == 58
        packets, = [line for line in out.splitlines()
                    if line.startswith("  packets: ")]
        assert packets.endswith(
            " fired by the kernel, table {slots} slots of 58 bytes, {live} "
            "live after {compactions} compactions, {records} records "
            "waiting after {refills} refills".format(**table))
        assert "; objects: none built\n" in out

    def test_light_load_keeps_the_table_bounded(self):
        """A long light-load run interns a packet per message but holds a
        few dozen: the table stops growing where compaction pays."""
        spec = WorkloadSpec(kind="quarc", n=64, msg_len=16, beta=0.0,
                            rate=0.004, cycles=100_000, warmup=1000, seed=1)
        session = SimulationSession(RunConfig(spec=spec, backend="array"))
        session.run()
        be = session.backend
        assert be._nstaged > 25_000
        assert len(be._pdst) <= 8192
        assert be._nsweep > 0
