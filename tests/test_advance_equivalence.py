"""The multi-cycle entry equals K single-cycle calls, event for event.

``ArrayBackend._advance(now, horizon)`` runs cycles until Python is
needed; ``step`` is the same entry at horizon 1.  Whatever the batching,
one spec + seed must produce the same events (winner, dateline,
delivery, route-to-Python -- each carrying its cycle), the same state
and the same ``RunSummary``.
Also pinned here: the two orderings the batching could break (a packet
regenerated by a delivery folds ahead of the next cycle's pre-drawn
arrivals) and the ring / pending-FIFO boundary of deep source queues.
"""

from __future__ import annotations

import numpy as np
import pytest
from differential import make_config

from repro.core.api import build_network
from repro.noc.network import flit_key
from repro.obs import ObsSpec
from repro.sim import array_backend
from repro.sim.array_backend import (EV_COMPLETE, EV_DATELINE, EV_DELIVERY,
                                     EV_ROUTE, EV_WINNER, FIDMASK, FSHIFT)
from repro.sim.backend import SimBackend
from repro.sim.session import SimulationSession, _merge_probes

KINDS = ("quarc", "spidergon", "mesh", "torus")


def _named(be, events):
    """``events`` with every aid and receipt slot (an interning order,
    which batching changes) replaced by the packet / op it names."""
    out = []
    it = iter(events)
    for key, word in zip(it, it):
        kind = key & 7
        if kind == EV_DELIVERY:
            word = (flit_key(be._packet(word >> 16), 0), word & 0xFFFF)
        elif kind == EV_DATELINE:
            word = flit_key(be._packet(word >> FSHIFT), word & FIDMASK)
        elif kind == EV_COMPLETE:
            op = be._slot_op[word]
            word = (op.src, op.created)
        out += (key, word)
    return out


def _drive(config, backend="array", per_cycle=False, trace=False,
           snap_at=(), hook_at=None, before=None, digest_every=0):
    """Run ``config``; returns the summary, the replayed events, the
    state digests (every ``digest_every`` cycles, then end of run) and
    ``(snapshot, total_flits)`` at each cycle of ``snap_at``.
    ``per_cycle`` drives the array engine through ``step`` (horizon 1)
    instead of its windowed ``run_mix``; ``hook_at = (cycle, fn)`` calls
    ``fn(backend)`` after that cycle, ``before(session)`` runs ahead of
    the first one."""
    session = SimulationSession(config.with_backend(backend))
    be, net = session.backend, session.net
    events, snaps, digests = [], [], []
    if before is not None:
        before(session)
    if trace:
        be._st.trace = 1
        replay = be._replay
        be._replay = lambda evs: (events.extend(_named(be, evs)),
                                  replay(evs))
    probes = session._probe_schedule()
    _merge_probes(probes, {
        t: lambda now: snaps.append((net.state_snapshot(),
                                     net.total_flits()))
        for t in snap_at})
    if hook_at is not None:
        _merge_probes(probes, {hook_at[0]: lambda now: hook_at[1](be)})
    if digest_every:
        _merge_probes(probes, {
            t: lambda now: digests.append(be.state_digest())
            for t in range(digest_every, config.spec.cycles, digest_every)})
    run_mix = SimBackend.run_mix if per_cycle else type(be).run_mix
    run_mix(be, session.mix, config.spec.cycles, probes)
    if backend == "array":
        digests.append(be.state_digest())
    summary = session.summary()
    be.detach()
    return summary, events, digests, snaps


@pytest.mark.parametrize("beta", (0.0, 0.1))
@pytest.mark.parametrize("kind", KINDS)
def test_one_advance_equals_k_steps(kind, beta):
    kinds_seen = set()
    for rate in (0.01, 0.2):        # sub-saturation, saturated
        config = make_config(kind=kind, n=16, msg_len=6, beta=beta,
                             rate=rate, cycles=700, warmup=150, seed=11)
        batched = _drive(config, trace=True)
        stepped = _drive(config, per_cycle=True, trace=True)
        assert batched[1] == stepped[1], (kind, beta, rate)   # events
        assert batched[2] == stepped[2], (kind, beta, rate)   # digest
        assert batched[0] == stepped[0], (kind, beta, rate)   # summary
        assert batched[0] == _drive(config, "reference")[0]
        keys = batched[1][::2]
        assert keys == sorted(keys, key=lambda k: k >> 3)   # cycle order
        kinds_seen.update(k & 7 for k in keys)
    assert {EV_WINNER, EV_DELIVERY} <= kinds_seen
    # a broadcast's receipts are the kernel's: Python hears completions
    assert (EV_COMPLETE in kinds_seen) == (beta > 0)
    if kind != "mesh":              # rings and tori have dateline links
        assert EV_DATELINE in kinds_seen
    # broadcast headers route by table (the clone is bit 2 of the entry)
    assert EV_ROUTE not in kinds_seen


@pytest.mark.parametrize("beta", (0.0, 0.1))
@pytest.mark.parametrize("rate", (0.01, 0.2))
@pytest.mark.parametrize("depth", (1, 2, 4))
@pytest.mark.parametrize("kind", KINDS)
def test_ready_set_equals_full_scan(kind, depth, rate, beta, monkeypatch):
    """Phase A walks the ready set its wakes keep; a rescan before every
    entry of a per-cycle run makes every cycle a full scan.  A missed
    wake leaves an eligible row unexamined, and the two runs part."""
    _ready_set_equals_full_scan(kind, depth, rate, beta, "", monkeypatch)


@pytest.mark.parametrize("faults,rate", (("links:down=2@cycle=150", 0.2),
                                         ("routers:down=1@cycle=0", 0.01)))
@pytest.mark.parametrize("kind", KINDS)
def test_ready_set_equals_full_scan_under_faults(kind, faults, rate,
                                                 monkeypatch):
    """Under a fault state every header routes in Python; each such route
    wakes its own row (``repro_wake``) instead of rescanning the set."""
    _ready_set_equals_full_scan(kind, 2, rate, 0.1, faults, monkeypatch)


def _ready_set_equals_full_scan(kind, depth, rate, beta, faults,
                                monkeypatch):
    config = make_config(kind=kind, n=16, msg_len=6, beta=beta, rate=rate,
                         cycles=500, warmup=100, seed=11, buffer_depth=depth,
                         faults=faults)
    route, woken = array_backend.ArrayBackend._route_one, []

    def routed(be, b):
        route(be, b)
        woken.append(int(be._rdy[b >> 6]) >> (b & 63) & 1)

    monkeypatch.setattr(array_backend.ArrayBackend, "_route_one", routed)
    kept = _drive(config, trace=True)
    assert all(woken) and (woken or not faults)
    call = array_backend.ArrayBackend._call

    def rescanning(be, entry):
        be._st.rescan = 1
        return call(be, entry)

    monkeypatch.setattr(array_backend.ArrayBackend, "_call", rescanning)
    full = _drive(config, per_cycle=True, trace=True)
    assert kept[:3] == full[:3]     # summary, events, digests
    assert kept[0] == _drive(config, "reference")[0]


def test_multicast_header_still_routes_in_python():
    """What the table leaves to ``route_head``: a multicast at a Quarc
    ingress.  Its ROUTE events end their batches and the run still
    equals K single steps and the reference."""
    config = make_config(kind="quarc", n=16, msg_len=6, beta=0.1,
                         rate=0.05, cycles=300, warmup=50, seed=11)

    def multicast(session):
        session.net.adapters[2].send_multicast([3, 5, 9, 10, 15], 6, 0)

    batched = _drive(config, trace=True, before=multicast)
    stepped = _drive(config, per_cycle=True, trace=True, before=multicast)
    assert batched[:3] == stepped[:3]
    assert batched[0] == _drive(config, "reference", before=multicast)[0]
    routed = [w for k, w in zip(batched[1][::2], batched[1][1::2])
              if k & 7 == EV_ROUTE]
    assert len(routed) >= 5     # every rim ingress the branches cross


def test_batches_really_span_cycles():
    """Nothing needs Python inside a window, broadcasts included (their
    headers route by table, their tails ride the batch): the run is a
    handful of kernel entries, not one per cycle."""
    for beta in (0.0, 0.1):
        config = make_config(kind="quarc", n=16, msg_len=6, beta=beta,
                             rate=0.2, cycles=700, warmup=150, seed=11)
        session = SimulationSession(config.with_backend("array"))
        session.run()
        st = session.backend._st
        assert st.cycles > 600 and st.calls < 10
        assert list(st.stops) == [st.calls, 0, 0, 0]    # all at the horizon


def _stops(**kw):
    """``--profile``'s kernel counters (with their ``stops``: why the
    batches ended) and the summary of one profiled run."""
    session = SimulationSession(make_config(
        **{"n": 64, "msg_len": 16, "seed": 1, "cycles": 4000,
           "warmup": 1000, **kw}, obs=ObsSpec(profile=True)))
    summary = session.run()
    session.backend.detach()
    return session.profiler.report()["kernel_counters"], summary


#: a Fig. 11 cell of the paper: quarc64 / spidergon64 at beta = 0.1
FIG11 = dict(beta=0.1, rate=0.0034)


@pytest.mark.parametrize("case,delivery,calls", [
    # the paper's traffic never stops for a header or a tail ...
    (dict(FIG11), [0], range(20)),
    # ... the clone ablation changes the table, not that ...
    (dict(FIG11, clone_disabled=True), [0], range(20)),
    # ... Spidergon still stops on every relay tail (regeneration is
    # Python, ROADMAP 3(a)) ...
    (dict(FIG11, kind="spidergon"), range(1000, 4000), range(1000, 4000)),
    # ... and the closed loop enters once a cycle (horizon 1) but never
    # for a tail: it hears its tagged ones in the replay
    (dict(workload="cache_coherence:window=4", rate=1.0, cycles=2000,
          warmup=400), [0], [2000]),
], ids=["quarc", "quarc-noclone", "spidergon", "closed_coherence"])
def test_python_is_entered_for_events_not_headers(case, delivery, calls):
    kc, _ = _stops(**case)
    assert kc["stops"]["python_route"] == 0
    assert kc["stops"]["delivery"] in delivery
    assert kc["calls"] in calls


@pytest.mark.parametrize("case", [
    dict(FIG11), dict(FIG11, kind="spidergon"),
    dict(workload="cache_coherence:window=4", rate=1.0, cycles=2000,
         warmup=400)], ids=["quarc", "spidergon", "closed_coherence"])
def test_profile_says_how_tails_were_delivered(case):
    """``tails:`` splits the deliveries by path, ``packets:`` counts the
    late ones: every collective receipt is the kernel's, relay segments
    included (only their regeneration is Python's, and re-stages)."""
    session = SimulationSession(make_config(
        **{"n": 64, "msg_len": 16, "seed": 1, "cycles": 4000,
           "warmup": 1000, **case}, obs=ObsSpec(profile=True)))
    session.run()
    kc = session.profiler.report()["kernel_counters"]
    by_path = (kc["tails_kernel"], kc["tails_unicast"],
               kc["tails_receive_tail"])
    assert sum(by_path) == kc["tails_delivered"] == session.net.deliveries
    assert by_path[0] > 1000 and not by_path[2]
    relays = case.get("kind") == "spidergon"
    assert (kc["packets_late"] > 0) == (relays or "workload" in case)
    assert ("built, {} late\n  tails: {} delivered, {} counted by the "
            "kernel, {} as unicast columns, {} through receive_tail\n".format(
                kc["packets_late"], kc["tails_delivered"], *by_path)
            in session.profiler.render())


@pytest.mark.parametrize("kind,extra", [
    ("spidergon", {}),                      # relays through repl_q
    ("quarc", {"bcast_mode": "relay"}),     # ... through the source queue
])
def test_regenerated_packet_folds_before_next_arrivals(
        kind, extra, monkeypatch):
    """A relay segment regenerated by a delivery at cycle t enters its
    queue at t + 1 *ahead of* that node's pre-drawn arrivals of t + 1,
    as the reference pushes it -- although the window staged those
    arrivals first."""
    config = make_config(kind=kind, n=16, msg_len=4, beta=0.3, rate=0.12,
                         cycles=900, warmup=200, seed=5, **extra)
    merges = []
    stage = array_backend.ArrayBackend._stage

    def watching(be, now):
        waiting = be._st.apos < be._st.an
        late = len(be._staged)
        stage(be, now)
        if waiting:
            # the regenerated packets are the newest aids, and lead --
            # wherever the layout puts the first waiting row
            p, n = be._st.apos, be._st.an
            first = be._aaid[p:p + late].tolist()
            assert be._acyc[p:p + late].tolist() == [now] * late
            assert min(first) > be._aaid[p + late:n].max(initial=-1)
            merges.append(bool((be._acyc[p + late:n] == now).any()))

    monkeypatch.setattr(array_backend.ArrayBackend, "_stage", watching)
    at = (300, 600, 899)
    got = _drive(config, snap_at=at)
    want = _drive(config, "reference", snap_at=at)
    assert any(merges)      # a node did inject right after it relayed
    assert got[0] == want[0]
    assert got[3] == want[3]


@pytest.mark.parametrize("case,layouts,mixed", [
    # a relay tail lands before the window's first row has folded (the
    # consumed prefix is empty: the waiting rows shift right once) or
    # after (its segment fits in front); stepped, it shares a late batch
    # with the next cycle's unicast rows
    (dict(kind="spidergon", beta=0.3, rate=0.02),
     {"fresh", "shift", "prefix"}, True),
    # stepped, every injection is late: unicast rows and broadcast
    # packets in one batch (the window stamps them instead)
    (dict(workload="cache_coherence:storms=true,read_rate=0.05,"
                   "write_rate=0.01", rate=1.0), {"fresh"}, True),
    # reactive (horizon 1 either way) with an open-loop class: the
    # closed loop's tagged rows and the storms' broadcast packets
    (dict(workload="cache_coherence:window=4,storms=true", rate=1.0),
     {"fresh"}, True),
], ids=["relay", "storms", "closed-storms"])
def test_late_rows_go_in_front(case, layouts, mixed, monkeypatch):
    """Unstamped entries are due now and lead whatever waits: written
    into the consumed prefix (or a fresh window, or after one shift),
    interned in the same pass -- event for event the per-cycle run."""
    config = make_config(**{"kind": "quarc", "n": 16, "msg_len": 4,
                            "cycles": 900, "warmup": 200, "seed": 5, **case})
    seen = set()
    late = array_backend.ArrayBackend._stage_late

    def spying(be, now, n):
        pos, an = be._st.apos, be._st.an
        seen.add(("fresh" if pos == an else "shift" if pos < n else "prefix",
                  pos, len({len(e) for e in be._staged})))
        late(be, now, n)

    monkeypatch.setattr(array_backend.ArrayBackend, "_stage_late", spying)
    batched = _drive(config, trace=True, digest_every=97)
    if "shift" in layouts:      # apos == 0 < an: nothing consumed yet
        assert ("shift", 0, 1) in seen
    stepped = _drive(config, per_cycle=True, trace=True, digest_every=97)
    assert {how for how, _, _ in seen} == layouts
    assert any(kinds == 2 for _, _, kinds in seen) == mixed
    assert batched[:3] == stepped[:3]   # summary, events, digests
    assert len(batched[2]) == 900 // 97 + 1
    assert batched[0] == _drive(config, "reference")[0]


def test_bad_late_rows_raise_like_send():
    """A late row ``adapter.send`` would refuse raises what it raises,
    waiting rows or not, and leaves them waiting."""
    net, _ = build_network("quarc", 16)
    be = array_backend.ArrayBackend(net)
    for waiting in (0, 3):
        for i in range(waiting):        # a stamped window, not yet due
            net.send_unicast(1, 2, 4, None, 50)
        be._staged_at.extend([50] * waiting)
        be._advance(net.cycle, net.cycle + 1)
        assert be._st.an - be._st.apos == waiting
        for dst, msg in ((3, "local address has no quadrant"),
                         (16, "destination 16 out of range"),
                         (-1, "destination -1 out of range")):
            net.send_unicast(4, 5, 4, None, net.cycle)      # a good one first
            net.send_unicast(3, dst, 4, None, net.cycle)
            with pytest.raises(ValueError, match=msg):
                net.step()
            be._staged.clear()
            assert be._st.an - be._st.apos == waiting
        net.drain()
        assert net.total_flits() == 0


def test_spidergon_relays_restage_in_front(monkeypatch):
    """ROADMAP 3(a), interim half: on the Spidergon Fig. 11 cell every
    relay tail re-stages its segment late -- no ``concatenate``, no
    ``argsort`` (same branch) over what the window still holds."""
    stage, concatenate = array_backend.ArrayBackend._stage, np.concatenate
    late, merges = [], []

    def watching(be, now):
        late.append(not be._staged_at)
        stage(be, now)
        late.pop()

    def counting(*args, **kw):
        merges.extend(late)
        return concatenate(*args, **kw)

    monkeypatch.setattr(array_backend.ArrayBackend, "_stage", watching)
    monkeypatch.setattr(np, "concatenate", counting)
    session = SimulationSession(make_config(
        kind="spidergon", n=64, msg_len=16, seed=1, cycles=8000,
        warmup=1500, beta=0.1, rate=0.002))
    session.run()
    be = session.backend
    assert merges and not any(merges)   # stamped windows only
    assert be._st.stops[2] > 4000       # batches ended by a relay tail
    # every regenerated segment but a window's last few (stamped with
    # the next window's first cycle instead)
    relayed = session.collector.relay_segments
    assert 5000 < relayed - 20 < be._nlate <= relayed


def test_deep_source_queues_live_in_the_pending_fifo(monkeypatch):
    """Past the ring slice a source queue keeps whole packets in the
    pending FIFO and generates flit words as the ring drains.  With the
    slice shrunk to 8 flits a saturated run lives on that boundary."""
    monkeypatch.setattr(array_backend, "_RING_CAP", 8)
    config = make_config(kind="quarc", n=16, msg_len=6, beta=0.1,
                         rate=0.3, cycles=900, warmup=200, seed=3)
    depth = []

    def round_trip(be):
        depth.append((int(be._ppend.max()), int((be._phead >= 0).sum())))
        be.materialize()
        be.resync()

    at = (250, 500, 899)
    got = _drive(config, snap_at=at, hook_at=(400, round_trip))
    want = _drive(config, "reference", snap_at=at)
    assert depth[0][0] > 8 * 6 and depth[0][1] > 16     # deep, and many
    assert got[0] == want[0] and got[0].saturated
    assert got[3] == want[3]        # snapshots and total_flits()
    assert got[0] == _drive(config, per_cycle=True)[0]
