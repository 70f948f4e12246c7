"""The multi-cycle entry and what batching could break.

``ArrayBackend._advance(now, horizon)`` runs cycles until Python is
needed; ``step`` is the same entry at horizon 1.  That one entry of K
cycles equals K entries of one -- the same events (winner, dateline,
delivery, route-to-Python, each carrying its cycle), state digests and
``RunSummary`` -- and that the ready set misses no row a full rescan
finds, is checked for every differential case
(``differential.check_case``).  Pinned here: where Python is entered
and how ``--profile`` says so, the two orderings the batching could
break (a packet regenerated by a delivery folds ahead of the next
cycle's pre-drawn arrivals), late rows, and the ring / pending-FIFO
boundary of deep source queues.
"""

from __future__ import annotations

import numpy as np
import pytest
from differential import CUSTOM_CLOSED_LOOPS, drive, make_config
from helpers import CountingRandom

from repro.core.api import build_network
from repro.noc.packet import (BROADCAST, RELAY, UNICAST, CollectiveOp,
                              Packet)
from repro.obs import ObsSpec
from repro.sim import array_backend
from repro.sim.array_backend import EV_ROUTE
from repro.sim.backend import make_backend
from repro.sim.session import SimulationSession
from repro.workloads import registry

KINDS = ("quarc", "spidergon", "mesh", "torus")


def test_multicast_header_still_routes_in_python():
    """What the table leaves to ``route_head``: a multicast at a Quarc
    ingress.  Its ROUTE events end their batches and the run still
    equals K single steps and the reference."""
    config = make_config(kind="quarc", n=16, msg_len=6, beta=0.1,
                         rate=0.05, cycles=300, warmup=50, seed=11)

    def multicast(session):
        session.net.adapters[2].send_multicast([3, 5, 9, 10, 15], 6, 0)

    batched = drive(config, trace=True, before=multicast)
    stepped = drive(config, per_cycle=True, trace=True, before=multicast)
    assert batched[:3] == stepped[:3]
    assert batched[0] == drive(config, "reference", before=multicast)[0]
    # every rim ingress the branches cross
    assert batched.events.kinds[EV_ROUTE] >= 5


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
        assert list(st.stops) == [st.calls, 0, 0, 0, 0, 0, 0]  # horizon


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
    # ... Spidergon still stops on every relay tail (regeneration is
    # Python, ROADMAP 3(a)) ...
    (dict(FIG11, kind="spidergon"), range(1000, 4000), range(1000, 4000)),
    # ... and the closed loop enters neither for a reply nor for a
    # credit: the kernel sends the reply, applies the credit and fires
    # the source's next request itself
    (dict(workload="cache_coherence:window=4", rate=1.0, cycles=2000,
          warmup=400), [0], range(1, 10)),
], ids=["quarc", "spidergon", "closed_coherence"])
def test_python_is_entered_for_events_not_headers(case, delivery, calls):
    kc, _ = _stops(**case)
    assert kc["stops"]["python_route"] == 0
    assert kc["stops"]["delivery"] in delivery
    assert kc["calls"] in calls
    assert kc["stops"]["feedback"] == 0
    closed = "workload" in case
    assert (kc["replies_kernel"] > kc["calls"]) == closed
    assert (kc["requests_kernel"] > kc["calls"]) == closed


@pytest.mark.parametrize("case", [
    dict(FIG11), dict(FIG11, kind="spidergon"),
    dict(workload="cache_coherence:window=4", rate=1.0, cycles=2000,
         warmup=400)], ids=["quarc", "spidergon", "closed_coherence"])
def test_profile_says_how_tails_were_delivered(case):
    """``tails:`` splits the deliveries by path and counts the replies the
    kernel sent, ``packets:`` counts the late ones and the requests the
    kernel fired: every collective
    receipt is the kernel's, relay segments included (only their
    regeneration is Python's, and re-stages in front)."""
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
    assert (kc["packets_late"] > 0) == relays
    assert (kc["replies_kernel"] > 0) == ("workload" in case)
    assert (kc["requests_kernel"] > 0) == ("workload" in case)
    # a fault-free, untapped run books its unicast tails with their
    # batch, but where a relay tail ends nearly every batch (too few to
    # pay for a bulk pass: _BOOK_MIN)
    assert (kc["tails_booked"] == by_path[1] > 0) != relays
    if "workload" in case:
        # the closed loop's classes: the invalidations staged as columns,
        # the think coins drawn by the kernel, as many as the oracle reads
        assert kc["packets_columns"] > 0
        ref = SimulationSession(session.config.with_backend("reference"))
        for src in ref.mix._injectors:
            if src.reactive:
                src.rng = CountingRandom(src.rng)
        ref.run()
        assert kc["coins"] == sum(src.rng.reads for src in ref.mix._injectors
                                  if src.reactive) > 0
    assert f"{kc['rescans']} rescans, {kc['coins']} coins drawn\n" in (
        session.profiler.render())
    assert ("built, {} late, {} fired by the kernel, table {slots} slots "
            "of {slot_bytes} bytes, {live} live after {compactions} "
            "compactions, {records} records waiting after {refills} "
            "refills\n  tails: {} "
            "delivered, {} counted by the kernel, {} as unicast columns "
            "({} booked per batch), {} through receive_tail, {} replies "
            "sent by the kernel\n".format(
                kc["packets_late"], kc["requests_kernel"],
                kc["tails_delivered"], *by_path[:2], kc["tails_booked"],
                by_path[2], kc["replies_kernel"],
                **session.profiler.report()["packet_table"])
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
        new = [id(e[-1]) for e in be._staged]
        stage(be, now)
        if waiting:
            # the regenerated packets lead, in push order -- wherever the
            # layout puts the first waiting row
            p, n = be._st.apos, be._st.an
            first = be._aaid[p:p + late].tolist()
            assert be._acyc[p:p + late].tolist() == [now] * late
            assert [id(be._pkts[a]) for a in first] == new
            merges.append(bool((be._acyc[p + late:n] == now).any()))

    monkeypatch.setattr(array_backend.ArrayBackend, "_stage", watching)
    at = (300, 600, 899)
    got = drive(config, snap_at=at)
    want = drive(config, "reference", snap_at=at)
    assert any(merges)      # a node did inject right after it relayed
    assert got[0] == want[0]
    assert got[3] == want[3]


def test_arrivals_fold_in_reference_fifo_order():
    """The staging rule at one source queue of an attached engine: a
    relay segment regenerated by a delivery at t - 1, a window row for
    t injected before cycle t - 1 ran, and a packet pushed after
    ``generate(t)`` fold in that order -- regenerated first, then push
    order -- which is the order the reference pushes them in."""
    t, v, d = 6, 3, 4       # node 3's quadrant queue toward node 4
    snaps = []
    for backend in ("reference", "array"):
        net, _ = build_network("quarc", 16, bcast_mode="relay")
        be = make_backend(backend, net)
        window = lambda: net.send_unicasts(     # noqa: E731
            np.array([t]), np.array([v]), np.array([d]), 3)
        for c in range(t):
            if be.inject_ahead and c == t - 1:
                window()            # pre-drawn: staged ahead of its cycle
            be.step(c)
        op = CollectiveOp(v, t - 1, expected=1, kind=BROADCAST)
        net.adapters[v]._relay(op, (d,), 0, 2, t - 1, True)
        if not be.inject_ahead:
            window()                # generate(t) on the reference
        net.adapters[v].send(Packet(v, d, 4, UNICAST), t)
        snap = net.state_snapshot()
        net.drain()
        snaps.append((snap, net.state_snapshot()))
    queue = [q for q in snaps[1][0]["buffers"].values() if q["q"]]
    assert [k[2:5] for k in queue[0]["q"] if k[5] == 0] == [
        (2, RELAY, t - 1), (3, UNICAST, t), (4, UNICAST, t)]
    assert snaps[0] == snaps[1]


@pytest.mark.parametrize("case,layouts", [
    # a relay tail lands before the window's first row has folded (the
    # consumed prefix is empty: the waiting rows shift right once) or
    # after (its segment fits in front); the next cycle's unicasts are
    # a window of columns, staged fresh
    (dict(kind="spidergon", beta=0.3, rate=0.02),
     {"fresh", "shift", "prefix"}),
    # an open-loop mix stages a block of rows and packets at once
    (dict(workload="cache_coherence:storms=true,read_rate=0.05,"
                   "write_rate=0.01", rate=1.0), {"fresh"}),
    # reactive: the kernel fires a credit's request itself, so the
    # window's rows are staged once ...
    (dict(workload="cache_coherence:window=4,storms=true", rate=1.0),
     {"fresh"}),
    # ... a phase's end re-enters a window with open-loop rows waiting:
    # the barrier goes in front of them
    (dict(workload="phased_noise", rate=1.0), {"fresh", "prefix", "shift"}),
], ids=["relay", "storms", "closed-storms", "closed-phased"])
def test_late_rows_go_in_front(case, layouts, monkeypatch):
    """New rows that lead whatever waits go in front of it: written into
    the consumed prefix (or a fresh window, or after one shift); rows
    due among the waiting ones are written behind them and merged in
    place -- event for event the per-cycle run."""
    custom = CUSTOM_CLOSED_LOOPS.get(case.get("workload"))
    if custom is not None:
        monkeypatch.setattr(registry, "resolve_workload",
                            lambda spec, n: custom)
        case = dict(case, workload="allreduce:window=2")
    config = make_config(**{"kind": "quarc", "n": 16, "msg_len": 4,
                            "cycles": 900, "warmup": 200, "seed": 5, **case})
    seen = set()
    put = array_backend.ArrayBackend._put

    def spying(be, key, abuf, aaid):
        pos, an, n = be._st.apos, be._st.an, len(key)
        lead = pos == an or key[-1] < (
            int(be._acyc[pos]) << array_backend.RANK_BITS
            | int(be._arank[pos]))
        seen.add(("fresh" if pos == an else "merge" if not lead
                  else "shift" if pos < n else "prefix", pos))
        put(be, key, abuf, aaid)

    monkeypatch.setattr(array_backend.ArrayBackend, "_put", spying)
    batched = drive(config, trace=True, digest_every=97)
    if "shift" in layouts and custom is None:   # nothing consumed yet
        assert ("shift", 0) in seen
    stepped = drive(config, per_cycle=True, trace=True, digest_every=97)
    assert {how for how, _ in seen} == layouts
    assert batched[:3] == stepped[:3]   # summary, events, digests
    assert len(batched[2]) == 900 // 97 + 1
    assert batched[0] == drive(config, "reference")[0]


def test_bad_late_rows_raise_like_send():
    """A late row ``adapter.send`` would refuse raises what it raises,
    waiting rows or not, and leaves them waiting."""
    net, _ = build_network("quarc", 16)
    be = array_backend.ArrayBackend(net)
    for waiting in (0, 3):
        for i in range(waiting):        # due at cycle 50, not yet
            net.send_unicast(1, 2, 4, None, 50)
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

    def watching(be, now):      # relay segments: packets alone
        late.append(all(len(e) == 2 for e in be._staged))
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
    assert merges and not any(merges)   # windows only
    assert be._st.stops[2] > 4000       # batches ended by a relay tail
    # every regenerated segment but a window's last few (staged with
    # the next window instead)
    relayed = session.collector.relay_segments
    assert 5000 < relayed - 20 < be._nlate <= relayed


def test_deep_source_queues_live_in_the_pending_fifo(monkeypatch):
    """Past the ring slice a source queue keeps whole packets in the
    pending FIFO and generates flit words as the ring drains.  With the
    slice shrunk to 8 flits a saturated run lives on that boundary."""
    monkeypatch.setattr(array_backend, "_SRC_WINDOW", 8)
    config = make_config(kind="quarc", n=16, msg_len=6, beta=0.1,
                         rate=0.3, cycles=900, warmup=200, seed=3)
    depth = []

    def round_trip(be):
        depth.append((int(be._ppend.max()), int((be._phead >= 0).sum())))
        be.materialize()
        be.resync()

    at = (250, 500, 899)
    got = drive(config, snap_at=at, hook_at=(400, round_trip))
    want = drive(config, "reference", snap_at=at)
    assert depth[0][0] > 8 * 6 and depth[0][1] > 16     # deep, and many
    assert got[0] == want[0] and got[0].saturated
    assert got[3] == want[3]        # snapshots and total_flits()
    assert got[0] == drive(config, per_cycle=True)[0]


#: Packets four times a source queue's window (64 flits against 16
#: words), far past saturation: every backlog spans the pending FIFO.
DEEP = dict(n=16, msg_len=64, rate=0.05, cycles=700, warmup=150, seed=5)


@pytest.mark.parametrize("kind", KINDS)
def test_deep_source_queues_batch_like_single_steps(kind):
    depth = []
    config = make_config(kind=kind, beta=0.1 if kind == "quarc" else 0.0,
                         **DEEP)
    batched = drive(config, trace=True, hook_at=(
        400, lambda be: depth.append(int(be._ppend.max()))))
    stepped = drive(config, per_cycle=True, trace=True)
    assert depth[0] > 4 * 64        # a backlog of whole packets
    assert batched[1] == stepped[1]     # events
    assert batched[2] == stepped[2]     # digest
    assert batched[0] == stepped[0] and batched[0].saturated


def test_deep_source_queue_round_trip_with_a_cut_packet():
    """``materialize`` then ``resync`` while the head of a pending FIFO is
    a packet cut by the ring window (its first flits are ring words, the
    rest still in packet form) re-packs the same queues: the run equals
    an uninterrupted one, snapshot for snapshot."""
    config = make_config(kind="quarc", beta=0.1, **DEEP)
    cut = []

    def round_trip(be):
        cut.append(int(((be._phead >= 0) & (be._pfid > 0)).sum()))
        be.materialize()
        be.resync()

    at = (300, 500, 699)
    got = drive(config, snap_at=at, hook_at=(400, round_trip))
    want = drive(config, snap_at=at)
    assert cut[0] > 0
    assert got[0] == want[0] and got[0].saturated
    assert got[3] == want[3]        # snapshots and total_flits()
    assert got[2] == want[2]        # the end-of-run digest
