"""A message is a row until someone looks at it.

``Network.send_unicast`` hands an array engine ``(node, dst, size, cls,
cycle)`` rows, ``Network.send_broadcast`` a Quarc broadcast's row, and
a mix windows of ``(cycle, node, dst)`` columns per class;
``ArrayBackend._stage`` turns them into packet columns and looks the
source queues up in the adapters' ``unicast_queue_table`` /
``broadcast_table``; a ``Packet`` (and a broadcast's ``CollectiveOp``)
is built by ``ArrayBackend._packet`` only for an aid something reads as
an object.  Pinned here: the row path equals the object path (summary,
state, inject taps), the table equals ``send()``, the lazily built
objects equal the reference's, flits are conserved, ``--profile``
counts what was ever an object, and a batch's unicast tails, rows and
objects alike, are booked together in emission order.
"""

from __future__ import annotations

import numpy as np
import pytest
from differential import make_config
from hypothesis import example, given, settings, strategies as st

from repro.core.api import build_network
from repro.faults import FaultPlan, FaultState
from repro.noc.network import Network
from repro.noc.packet import MULTICAST, UNICAST, Packet
from repro.obs import ObsSpec
from repro.sim.array_backend import ArrayBackend
from repro.sim.session import SimulationSession, _merge_probes
from repro.workloads import Trace

KINDS = (("quarc", {}), ("quarc", {"bcast_mode": "relay"}),
         ("spidergon", {}), ("mesh", {}), ("torus", {}))
TOPOLOGIES = ("quarc", "spidergon", "mesh", "torus")
COHERENCE = dict(workload="cache_coherence:storms=true", rate=1.0)


def _as_packet(self, node, dst, size, cls, now, tag=None, cont=None):
    """``Network.send_unicast`` as it was before rows: always an object."""
    pkt = Packet(node, dst, size, UNICAST, created=now)
    pkt.cls = cls
    pkt.tag = tag
    pkt.cont = cont
    self.adapters[node].send(pkt, now)


def _as_op(self, node, size, cls, now, on_complete=None):
    """``Network.send_broadcast`` as it was before rows: always objects."""
    op = self.adapters[node].send_broadcast(size, now)
    op.cls, op.on_complete = cls, on_complete
    return op


def _as_ops(self, cyc, node, size, cls):
    """``Network.send_broadcasts`` as it was before windows: a
    ``send_broadcast`` per row."""
    for c, v in zip(cyc.tolist(), node.tolist()):
        self.send_broadcast(v, size, cls, c)


def _drive(config, digest_every=0, snap_at=(), on_tail=False):
    """Run ``config``; returns the session and what was observed: the
    summary, a state digest every ``digest_every`` cycles, the
    ``on_inject`` taps, ``state_snapshot()`` at ``snap_at`` and, with
    ``on_tail``, every tail handed to ``net.on_tail``."""
    session = SimulationSession(config)
    net, be = session.net, session.backend
    seen = dict(digests=[], taps=[], snaps=[], tails=[])
    session.mix.on_inject = lambda *tap: seen["taps"].append(tap)
    if on_tail:
        net.on_tail = lambda node, pkt, now: seen["tails"].append(
            (node, now, pkt.src, pkt.dst, pkt.size, pkt.created, pkt.cls))
    cycles = config.spec.cycles
    probes = session._probe_schedule()
    if digest_every:
        _merge_probes(probes, {
            t: lambda now: seen["digests"].append(be.state_digest())
            for t in range(digest_every, cycles, digest_every)})
    _merge_probes(probes, {
        t: lambda now: seen["snaps"].append(net.state_snapshot())
        for t in snap_at})
    be.run_mix(session.mix, cycles, probes)
    seen["summary"] = session.summary()
    return session, seen


def _variants(kind, beta, cfg, tmp_path):
    """Single class, open-loop multi-class, and a v2 replay of the
    single-class run."""
    base = dict(kind=kind, n=16, msg_len=6, beta=beta, rate=0.08,
                cycles=500, warmup=100, seed=5, **cfg)
    yield make_config(**base)
    yield make_config(**{**base, **COHERENCE})
    _, seen = _drive(make_config(**base))
    events = [(now, node, dst, size, cls, bcast)
              for node, now, cls, dst, size, bcast in seen["taps"]]
    path = Trace(n=16, events=events).save(str(tmp_path / "run.jsonl"))
    yield make_config(**{**base, "arrival": f"trace:path={path}"})


@pytest.mark.parametrize("beta", (0.0, 0.1))
@pytest.mark.parametrize("kind,cfg", KINDS)
def test_rows_equal_packets(kind, cfg, beta, tmp_path, monkeypatch):
    for config in _variants(kind, beta, cfg, tmp_path):
        session, rows = _drive(config, digest_every=97)
        mix, be = session.mix, session.backend
        nb = len(be._btab[0]) if be._btab else 0    # a broadcast's rows
        assert mix.generated_unicasts > 0
        assert be._nrows == (mix.generated_unicasts
                             + nb * mix.generated_broadcasts)
        with monkeypatch.context() as m:
            m.setattr(Network, "send_unicast", _as_packet)
            m.setattr(Network, "send_broadcast", _as_op)
            session, pkts = _drive(config, digest_every=97)
        assert session.backend._nrows == 0
        assert rows == pkts, config.spec


@pytest.mark.parametrize("n", (16, 64))
@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_queue_table_is_send(kind, n):
    """``unicast_queue_table()`` names the queue ``send()`` pushes
    into, for every (node, dst); -1 exactly where ``send()`` raises."""
    net, _ = build_network(kind, n)
    pushed = []
    for buf in net.iter_buffers():
        buf.sink = pushed           # the seam an array engine stages by
    for node, ad in enumerate(net.adapters):
        queues, slot = ad.unicast_queue_table()
        assert len(slot) == n
        for dst in range(n):
            try:
                ad.send(Packet(node, dst, 1), 0)
            except ValueError:
                assert slot[dst] == -1, (node, dst)
            else:
                queue = getattr(net.routers[node], queues[slot[dst]])
                assert pushed.pop()[0] == queue.row, (node, dst)


def test_bad_rows_raise_like_send():
    net, _ = build_network("quarc", 16)
    be = ArrayBackend(net)
    for dst, msg in ((3, "no quadrant"), (16, "destination 16 out of range"),
                     (-1, "destination -1 out of range")):
        net.send_unicast(3, dst, 4, None, 0)
        with pytest.raises(ValueError, match=msg):
            net.step()
        be._staged.clear()
    net.send_unicast(3, 4, 4, None, 0)
    assert net.total_flits() == 4   # a staged row counts its flits
    assert net.drain() > 0 and be._nbuilt == 0


def test_tags_and_continuations_are_refused():
    """An array engine's kernel fires the closed loop's transactions; a
    ``tag`` or ``cont`` handed to ``send_unicast`` would be lost, so it
    raises, for a row and under a fault state alike, and stages
    nothing."""
    net, _ = build_network("quarc", 16)
    ArrayBackend(net)
    fs = FaultState(FaultPlan.parse("links:down=1@cycle=9"), net, 7)
    for state in (None, fs):
        net.fault_state = state
        for kw in (dict(tag=0), dict(cont=(4, 1, None, 0))):
            with pytest.raises(ValueError, match="kernel fires closed-loop"):
                net.send_unicast(3, 4, 4, None, 0, **kw)
    assert net.total_flits() == 0


def test_lazy_packets_are_the_reference_packets():
    """What ``on_tail`` and ``materialize()`` hand out for a row-born
    message is what the reference run holds as an object."""
    config = make_config(kind="quarc", n=16, msg_len=6, cycles=600,
                         warmup=100, seed=5, **COHERENCE)
    session, arr = _drive(config, on_tail=True, snap_at=(150, 333))
    _, ref = _drive(config.with_backend("reference"), on_tail=True,
                    snap_at=(150, 333))
    assert arr == ref
    unicasts = [t for t in arr["tails"] if t[6] == "fill"]
    assert unicasts and session.backend._nrows > len(unicasts)
    assert session.backend._nbuilt >= len(unicasts)


@pytest.mark.parametrize("kind", ("quarc", "torus"))
def test_fault_after_rows_conserves_flits(kind):
    """A fault state installed mid-run meets rows already in flight:
    ``materialize`` builds their packets, the purge and the doomed set
    see them, and flits are conserved from the install on."""
    def run(backend):
        config = make_config(kind=kind, n=16, msg_len=6, beta=0.0,
                             rate=0.2, cycles=600, seed=7)
        session = SimulationSession(config.with_backend(backend))
        net, be, mix = session.net, session.backend, session.mix
        be.run_mix(mix, 300)
        fs = FaultState(FaultPlan.parse("links:down=2@cycle=300"), net, 7)
        fs.install(net)
        fs.injected_flits = net.total_flits()   # what the fault finds
        be.apply_faults(fs, fs.events_by_cycle()[300])
        be.run_mix(mix, 300)
        assert fs.dropped_msgs > 0
        assert fs.injected_flits == (fs.ejected_flits + fs.purged_flits
                                     + net.total_flits())
        return be, fs.extra_block(), session.summary()

    be, *arr = run("array")
    assert be._ncols > 0 and be._nbuilt > 0
    assert tuple(arr) == run("reference")[1:]


def _walk(be, heads):
    """The aids on the lists that start at ``heads``, linked by _pnext."""
    out = []
    for head in heads:
        while head >= 0:
            out.append(head)
            head = int(be._pnext[head])
    return out


def _ring_flits(be):
    """The flits of the replies in the kernel's due ring, walked; none is
    a request the kernel has yet to fire (its sources' lists)."""
    owed = _walk(be, be._cring[:, 0].tolist())
    scheduled = set(_walk(be, be._shead[:be._st.S].tolist()))
    waiting = set(be._aaid[be._st.apos:be._st.an].tolist())
    assert not scheduled & (set(owed) | waiting)
    assert all(be._pborn[a] < 0 for a in scheduled)
    return sum(int(be._psize[a]) for a in owed)


def _record_flits(be):
    """The flits of the backlog records not interned yet (every record
    slot but the free ones)."""
    fl = be._rslots
    return (int(be._rsize[:fl.used].sum())
            - int(be._rsize[fl.free[:fl.n]].sum()))


def _assert_conserved(be):
    """Every flit ever interned, or staged as a backlog record, has left
    through an ejection port, is in ``total_flits()`` (in flight, waiting
    to fold, or a reply the due ring owes) or is a reply whose request
    has not arrived yet or a request its source has yet to fire (neither
    of which a drain sends); staged entries are not interned yet.  The
    sums read every slot ever interned: the run stays below the table
    size that compacts."""
    assert be._nsweep == 0
    n = be._pslots.used
    size = be._psize[:n]
    unsent = int(size[be._pborn[:n] < 0].sum())
    owed = _ring_flits(be)
    assert be.net.pending_flits() == owed
    staged = be._staged_flits()
    ejected = sum(int(be._fs[p]) for p, port in enumerate(be._ports)
                  if port.is_ejection)
    assert (int(size.sum()) + _record_flits(be) + staged
            == ejected + be.net.total_flits() + unsent - owed)


@settings(derandomize=True, deadline=None, max_examples=12)
@example(kind=("spidergon", {}), msg_len=4, beta=0.4, rate=0.05, seed=3,
         cycles=400, workload="")   # relay segments re-staged late
@example(kind=("quarc", {}), msg_len=4, beta=0.0, rate=0.05, seed=3,
         cycles=400, workload="cache_coherence:window=4")
@example(kind=("quarc", {}), msg_len=4, beta=0.0, rate=0.05, seed=3,
         cycles=400, workload="cache_coherence:window=4,service=0")
@example(kind=("spidergon", {}), msg_len=4, beta=0.0, rate=0.05, seed=3,
         cycles=400, workload="allreduce:window=4,quota=12,gap=48")
@given(kind=st.sampled_from(KINDS), msg_len=st.integers(1, 9),
       beta=st.sampled_from((0.0, 0.1, 0.4)),
       rate=st.floats(0.005, 0.3), seed=st.integers(0, 2**16),
       cycles=st.integers(50, 400),
       workload=st.sampled_from((
           "", "", "cache_coherence:window=4",
           "cache_coherence:window=4,service=0", "allreduce:window=2",
           "allreduce:window=4,quota=12,gap=48")))
def test_engine_conserves_flits(kind, msg_len, beta, rate, seed, cycles,
                                workload):
    """Fault-free: every flit ever interned -- row, packet or column,
    merged in a window or staged late (relay segments, a closed loop's
    issues and the replies its requests carry) -- has left through an
    ejection port or is still counted by ``total_flits()``; checked at
    every window end."""
    load = dict(workload=workload, rate=1.0) if workload else dict(rate=rate)
    session = SimulationSession(make_config(
        kind=kind[0], n=16, msg_len=msg_len, beta=beta, cycles=cycles,
        warmup=0, seed=seed, **load, **kind[1]))
    be = session.backend
    advance, ends = be._advance, []

    def checked(now, horizon):
        ends.append(advance(now, horizon))
        _assert_conserved(be)
        return ends[-1]

    be._advance = checked
    session.run()
    if workload:
        assert len(ends) < cycles       # windows, not single cycles
    elif session.collector.relay_segments > 20:
        assert be._nlate > 0
    _assert_conserved(be)


@settings(derandomize=True, deadline=None, max_examples=10)
@example(kind=("quarc", {}), msg_len=16, beta=0.0, rate=0.05, seed=1,
         cycles=400)        # saturated: deep source queues
@given(kind=st.sampled_from(KINDS), msg_len=st.integers(1, 9),
       beta=st.sampled_from((0.0, 0.1, 0.4)),
       rate=st.floats(0.005, 0.3), seed=st.integers(0, 2**16),
       cycles=st.integers(50, 400))
def test_both_engines_conserve_flits(kind, msg_len, beta, rate, seed,
                                     cycles):
    """Fault-free, on either engine: every flit generated -- unicast
    columns, broadcast packets, relay segments -- has left through an
    ejection port, is in flight or is still staged; and both engines
    generated the same messages, counted alike by every collector."""
    from repro.noc.buffers import FlitBuffer
    seen = []
    for backend in ("reference", "array"):
        session = SimulationSession(make_config(
            kind=kind[0], n=16, msg_len=msg_len, beta=beta, rate=rate,
            cycles=cycles, warmup=0, seed=seed, backend=backend, **kind[1]))
        pushed = [0]
        push = FlitBuffer.push_packet

        def counted(buf, pkt, pushed=pushed, push=push):
            pushed[0] += pkt.size
            push(buf, pkt)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(FlitBuffer, "push_packet", counted)
            session.run()
        net, be, mix = session.net, session.backend, session.mix
        if backend == "array":
            # a Quarc clone-mode broadcast is a column per branch
            branches = 4 * mix.generated_broadcasts if be.broadcast_rows \
                else 0
            assert be._ncols == mix.generated_unicasts + branches
            assert be._nsweep == 0    # every slot ever interned
            generated = (int(be._psize[:be._pslots.used].sum())
                         + _record_flits(be) + be._staged_flits())
            ejected = sum(int(be._fs[p]) for p, port in enumerate(be._ports)
                          if port.is_ejection)
        else:
            generated = pushed[0]
            ejected = sum(port.flits_sent for port in net.iter_ports()
                          if port.is_ejection)
        assert generated == ejected + net.total_flits()
        colls = {id(ad.collector): ad.collector for ad in net.adapters}
        seen.append((generated, mix.generated_unicasts,
                     mix.generated_broadcasts,
                     [(c.generated_unicast, c.generated_collective)
                      for c in colls.values()]))
        be.detach()
    assert seen[0] == seen[1]


@pytest.mark.parametrize("beta", (0.0, 0.1))
def test_profile_counts_objects(beta):
    config = make_config(kind="quarc", n=16, msg_len=6, beta=beta,
                         rate=0.05, cycles=600, warmup=100,
                         obs=ObsSpec(profile=True))
    session = SimulationSession(config)
    session.run()
    mix = session.mix
    kc = session.profiler.report()["kernel_counters"]
    # a broadcast is a column per branch, none of them built
    assert kc["packets_columns"] == (mix.generated_unicasts
                                     + 4 * mix.generated_broadcasts) > 0
    assert kc["packets_rows"] == 0
    assert kc["packets_staged"] == (kc["packets_columns"]
                                    + kc["packets_rows"])
    assert (f"packets: {kc['packets_staged']} staged, {kc['packets_rows']} "
            f"as rows, {kc['packets_columns']} as columns, 0 built, 0 late, "
            f"0 fired by the kernel, table {{slots}} slots of {{slot_bytes}} "
            f"bytes, {{live}} live after 0 compactions, {{records}} "
            f"records waiting after {{refills}} refills\n".format(
                **session.profiler.report()["packet_table"])
            in session.profiler.render())


def _half_objects(self, cyc, node, dst, size, cls):
    """``Network.send_unicasts`` with every other message an object
    (``adapter.send``), the rest rows."""
    for i, (c, v, d) in enumerate(zip(cyc.tolist(), node.tolist(),
                                      dst.tolist())):
        if i % 2:
            self.adapters[v].send(Packet(v, d, size), c)
        else:
            self.send_unicast(v, d, size, cls, c)


def _booked(monkeypatch, config, backends=("array", "reference")):
    """Run ``config`` on each backend; returns the sessions, each with
    its summary and collector statistics, and the array engine's
    batches that booked tails created both before and after warmup."""
    straddle, book = [], ArrayBackend._book
    warmup = config.spec.warmup

    def booking(be, now, aid):
        born = be._pborn[aid]
        straddle.append((born < warmup).any() and (born >= warmup).any())
        book(be, now, aid)

    monkeypatch.setattr(ArrayBackend, "_book", booking)
    out = []
    for backend in backends:
        session = SimulationSession(config.with_backend(backend))
        summary = session.run()
        coll, eng = session.collector, session._closedloop
        stats = [coll.unicast.overall, *(c.latency for c in
                                         coll.per_class.values())]
        stats += eng.comp_stats.values() if eng is not None else ()
        out.append((summary, coll.unicast.batch_averages,
                    [(x.n, x.mean, x._m2, x.min, x.max, type(x.min))
                     for x in stats]))
        if backend == "array":
            be = session.backend
    return out, be, straddle


def test_row_and_object_tails_book_in_emission_order(monkeypatch):
    """A batch's unicast tails, rows and objects interleaved, are booked
    in one pass each, in emission order: every statistic is the
    reference's, bit for bit.  Mutant killed: booking the row tails in
    bulk and the object ones apart (one Welford sum in two orders)."""
    monkeypatch.setattr(Network, "send_unicasts", _half_objects)
    config = make_config(kind="quarc", n=16, msg_len=6, beta=0.0,
                         rate=0.06, cycles=600, warmup=0, seed=3)
    (arr, ref), be, _ = _booked(monkeypatch, config)
    assert arr == ref
    objects = be._nstaged - be._nrows - be._ncols
    assert objects > 100 and be._nrows > 100
    assert be._nbook == be.net.deliveries > be._st.calls


def test_a_batch_straddling_warmup_books_only_the_measured(monkeypatch):
    """Tails created before warmup are delivered, not measured: unicast,
    per-class and completion statistics (kinds int / float) equal the
    reference's where one batch holds both.  Mutants killed: measuring
    by delivery cycle, or every tail of the batch."""
    config = make_config(kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0,
                         cycles=900, warmup=333, seed=5,
                         workload="cache_coherence:window=4,service=0")
    (arr, ref), be, straddle = _booked(monkeypatch, config)
    assert arr == ref and any(straddle)
    assert be._nbook == be._nuni > 0


def _materialized(config, monkeypatch, objects):
    """Mid-run views of every buffer's flits (packet and op fields), on
    the array engine with broadcasts as rows, or as objects."""
    views = []
    with monkeypatch.context() as m:
        if objects:
            m.setattr(Network, "send_broadcast", _as_op)
            m.setattr(Network, "send_broadcasts", _as_ops)
        session = SimulationSession(config)
        net, be = session.net, session.backend

        def look(now):
            net.buffer_occupancy()      # materialize()
            ops = {}
            for buf in net.iter_buffers():
                views.append([(p.src, p.dst, p.size, p.traffic, p.vclass,
                               p.created, p.cls, i) for p, i in buf.q])
                for p, _ in buf.q:
                    if p.op is not None:    # one op for all its branches
                        assert ops.setdefault((p.src, p.created),
                                              p.op) is p.op
            views.append(sorted((k, op.expected, op.cls, op.kind,
                                 sorted(op.deliveries.items()),
                                 op.completed_at)
                                for k, op in ops.items()))

        probes = session._probe_schedule()
        _merge_probes(probes, {t: look for t in (90, 91, 230)})
        be.run_mix(session.mix, config.spec.cycles, probes)
        return views, session.summary(), be


def test_broadcast_rows_read_as_the_objects(monkeypatch):
    """A broadcast row's branches, read mid-run (``materialize`` builds
    them by ``_packet``), are what the object path holds: same dst,
    traffic, vclass, size and created, one op a broadcast with the
    receipts so far.  Mutants killed: a branch to the wrong end, an op
    per branch, an op without its receipts or class."""
    config = make_config(kind="quarc", n=16, msg_len=6, cycles=300,
                         warmup=50, seed=9, rate=4.0,
                         workload="cache_coherence:storms=true")
    rows = _materialized(config, monkeypatch, False)
    objects = _materialized(config, monkeypatch, True)
    assert rows[:2] == objects[:2]
    assert rows[2]._ncols > objects[2]._ncols and rows[2]._nbuilt > 0


@pytest.mark.parametrize("kind,cfg", [
    ("quarc", {"bcast_mode": "relay"}), ("spidergon", {}),
    ("quarc", {"faults": "links:down=2@cycle=100"})],
    ids=["relay", "spidergon", "faulted"])
def test_other_broadcasts_stay_objects(kind, cfg):
    """Relay chains, Spidergon and any fault state keep the object path:
    no broadcast is a row.  Mutant killed: a broadcast staged as a row
    where the adapter's fan-out is not one packet per queue, or where
    faults may drop a branch at the source."""
    session = SimulationSession(make_config(
        kind=kind, n=16, msg_len=4, beta=0.2, rate=0.05, cycles=300,
        **cfg))
    session.run()
    be, mix = session.backend, session.mix
    assert mix.generated_broadcasts > 10
    assert not be.broadcast_rows and be._nrows == 0


def test_multicasts_stay_objects_beside_broadcast_rows():
    """A Quarc multicast is objects (its bitstring), interned beside the
    broadcast rows of the same run."""
    session = SimulationSession(make_config(
        kind="quarc", n=16, msg_len=4, beta=0.2, rate=0.05, cycles=300))
    session.net.adapters[2].send_multicast([3, 5, 9, 10, 15], 6, 0)
    session.run()
    be = session.backend
    assert any(p.traffic == MULTICAST for p in be._pkts.values())
    mix = session.mix
    branches = be._ncols - mix.generated_unicasts
    assert branches == 4 * mix.generated_broadcasts > 0


def test_a_class_both_cast_replays_its_tails_alone(tmp_path, monkeypatch):
    """A replayed trace may give one class name to unicasts and
    broadcasts: their per-class statistic is fed by tails and
    completions alike, so a batch holding both replays each tail alone,
    in emission order.  Mutant killed: booking those tails in bulk
    anyway (the class's latency sum in another order)."""
    import random
    rng = random.Random(7)
    events = sorted((t, v, -1 if b else (v + rng.randrange(1, 16)) % 16,
                     rng.choice((2, 5, 9)), "x", b)
                    for t in range(0, 400, 4) for v in rng.sample(range(16), 2)
                    for b in (rng.random() < 0.3,))
    path = Trace(n=16, events=events).save(str(tmp_path / "x.jsonl"))
    config = make_config(kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0,
                         cycles=500, warmup=50,
                         arrival=f"trace:path={path}")
    (arr, ref), be, _ = _booked(monkeypatch, config)
    assert arr == ref and be._nbook < be._nuni
