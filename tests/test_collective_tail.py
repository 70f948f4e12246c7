"""A collective tail is a receipt: the collector's, or the kernel's.

``LatencyCollector.on_collective_tail(op, node, now)`` states the
arrival rule (first arrival at a node = a per-receiver sample, last
expected receiver = completion) for ``Adapter.receive_tail`` and the
shard merge; the array engine's kernel applies the same rule at the
cycle (``_cycle_kernel.c``) and hands Python only the completions.
Pinned here: the rule itself, engine == oracle down to every op's
delivery map and the float accumulators on every receipt path (relay
chains, multicast, the closed loop's tagged transactions and barrier),
and that the adapters state send / tail delivery / relay regeneration
once, on ``Adapter``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from differential import make_config

from repro.core.api import build_network
from repro.core.collector import LatencyCollector
from repro.core.dor_router import DORAdapter
from repro.core.quarc_transceiver import QuarcTransceiver
from repro.core.spidergon_adapter import SpidergonAdapter
from repro.noc import packet
from repro.noc.network import Network
from repro.noc.packet import BROADCAST, CollectiveOp, Packet
from repro.obs import ObsSpec
from repro.sim.array_backend import ArrayBackend
from repro.sim.backend import make_backend
from repro.sim.session import SimulationSession
from repro.topologies.quarc import RIGHT


def test_arrival_rule():
    coll = LatencyCollector(warmup=100)
    completed = []
    coll.on_collective_complete = lambda op, now: completed.append(now)
    op = CollectiveOp(0, 150, expected=3)
    coll.on_collective_tail(op, 5, 160)
    coll.on_collective_tail(op, 8, 170)
    coll.on_collective_tail(op, 8, 175)     # both cross branches: no-op
    assert op.deliveries == {5: 160, 8: 170} and not completed
    assert (coll.delivery.n, coll.delivery.mean) == (2, 15.0)
    coll.on_collective_tail(op, 9, 190)     # the last expected receiver
    coll.on_collective_tail(op, 9, 195)
    assert completed == [190] and op.completed_at == 190
    assert (coll.delivery.n, coll.delivery.max) == (3, 40)
    early = CollectiveOp(0, 50, expected=1)     # created before warmup:
    coll.on_collective_tail(early, 1, 400)      # counted, not sampled
    assert completed == [190, 400] and coll.delivery.n == 3


def _multicast(session):
    session.net.adapters[2].send_multicast([3, 5, 9, 10, 15], 6, 0)


def _run(config, monkeypatch, before=None):
    """Run ``config``; returns the summary, every collective op's
    delivery map (creation order; a broadcast the engine took as a row,
    which has no op, from its receipt slot), the per-receiver
    accumulator and the profile's kernel counters (``None`` on the
    oracle)."""
    ops, rows = [], {}
    init = CollectiveOp.__init__
    send, sends = Network.send_broadcast, Network.send_broadcasts
    completed = ArrayBackend._completed

    def recording(self, *args, **kw):
        init(self, *args, **kw)
        ops.append(self)

    def sending(net, *args, **kw):
        op = send(net, *args, **kw)
        if op is None:          # a row: the k-th one's first aid is k-th
            ops.append(None)
        return op

    def sending_all(net, cyc, *args):
        k = len(ops)
        sends(net, cyc, *args)
        if len(ops) == k:       # a window of rows
            ops.extend([None] * len(cyc))

    def receipts(be, x):
        seen = SimpleNamespace()
        be._fill(x, seen)
        rows[be._slot_op[x][0]] = seen.deliveries

    def completing(be, x, now):
        for i in x.tolist():
            receipts(be, i)
        completed(be, x, now)

    with monkeypatch.context() as m:
        m.setattr(packet.CollectiveOp, "__init__", recording)
        m.setattr(Network, "send_broadcast", sending)
        m.setattr(Network, "send_broadcasts", sending_all)
        m.setattr(ArrayBackend, "_completed", completing)
        session = SimulationSession(config)
        if before is not None:
            before(session)
        summary = session.run()
    for x, op in enumerate(getattr(session.backend, "_slot_op", ())):
        if type(op) is tuple:       # open at the end
            receipts(session.backend, x)
    maps = iter([rows[a] for a in sorted(rows)])
    d = session.collector.delivery
    kc = session.profiler.report().get("kernel_counters")
    return (summary, [next(maps) if op is None else op.deliveries
                      for op in ops],
            (d.n, d.mean, d._m2, d.min, d.max), kc)


#: the closed loop's load knob scales its classes' native rates
CLOSED = dict(rate=1.0, beta=0.0)


@pytest.mark.parametrize("kind,cfg,before", [
    ("quarc", {}, None), ("quarc", {}, _multicast), ("mesh", {}, None),
    ("torus", {}, None),
    # relay ops and kernel-counted multicast ops share one accumulator
    ("quarc", {"bcast_mode": "relay"}, _multicast),
    ("spidergon", {}, None),
    ("quarc", dict(CLOSED, workload="cache_coherence:window=4"), None),
    # the barrier completes through CollectiveOp.on_complete
    ("quarc", dict(CLOSED, workload="allreduce:window=2,quota=4,gap=8"),
     None),
], ids=["quarc", "quarc-multicast", "mesh", "torus", "quarc-relay-multicast",
        "spidergon", "closed-coherence", "closed-allreduce"])
def test_engine_tails_equal_the_oracles(kind, cfg, before, monkeypatch,
                                        engines_built):
    config = make_config(**{"kind": kind, "n": 16, "msg_len": 6,
                            "beta": 0.1, "rate": 0.05, "cycles": 700,
                            "warmup": 150, "seed": 11, **cfg},
                         obs=ObsSpec(profile=True))
    *got, kc = _run(config, monkeypatch, before)
    *want, _ = _run(config.with_backend("reference"), monkeypatch, before)
    assert len({*engines_built}) == 2
    assert got == want
    assert got[2][0] > 100 and len(got[1]) > 10
    # every receipt was the kernel's: no tail needed an adapter
    assert kc["tails_receive_tail"] == 0 < kc["tails_kernel"]
    assert kc["tails_kernel"] + kc["tails_unicast"] == kc["tails_delivered"]


def test_a_tail_after_completion_is_a_duplicate(engines_built):
    """A copy of a broadcast branch trails it, so some of its tails land
    after the op completed -- and after the next op took over the
    op's receipt slot.  They are duplicates, as on the reference: the
    slot's generation tells the kernel they are not the new op's."""
    def run(backend):
        coll = LatencyCollector()
        net, _ = build_network("quarc", 16, collector=coll)
        be = make_backend(backend, net)
        engines_built.append(type(be))
        late = []
        net.on_tail = lambda node, pkt, now: late.append(
            (node, now)) if pkt.op is op1 and op1.complete else None
        op1 = net.adapters[0].send_broadcast(4, 0)
        getattr(net.routers[0], net.adapters[0].queues[RIGHT]).push_packet(
            Packet(0, 4, 4, BROADCAST, op=op1))
        while not op1.complete:
            net.step()
        op2 = net.adapters[8].send_broadcast(4, net.cycle)
        net.drain()
        be.detach()
        d = coll.delivery
        return (late, op1.deliveries, op2.deliveries, op2.completed_at,
                (d.n, d.mean, d._m2, d.min, d.max))

    got, want = run("array"), run("reference")
    assert len({*engines_built}) == 2
    assert got == want and got[0]      # the late tails did land


@pytest.mark.parametrize("cls", (QuarcTransceiver, SpidergonAdapter,
                                 DORAdapter))
def test_adapters_keep_only_their_topology(cls):
    """Accepting a message, delivering a tail and regenerating a relay
    hop are ``Adapter``'s; the array engine relies on them being the
    same everywhere."""
    assert not {"send", "receive_tail", "_relay_next"} & set(vars(cls))
