"""A passive collective tail is one collector call.

``LatencyCollector.on_collective_tail(op, node, now)`` is the one
statement of the arrival rule (first arrival at a node = a per-receiver
sample, last expected receiver = completion); ``Adapter.receive_tail`` /
``_relay_forward``, the array engine's replay (``ArrayBackend._pop``)
and the shard merge all go through it.  Pinned here: the rule itself,
engine == oracle down to every op's delivery map and the float
accumulators, and that the adapters state send / tail delivery / relay
regeneration once, on ``Adapter``.
"""

from __future__ import annotations

import pytest
from differential import make_config

from repro.core.collector import LatencyCollector
from repro.core.dor_router import DORAdapter
from repro.core.quarc_transceiver import QuarcTransceiver
from repro.core.spidergon_adapter import SpidergonAdapter
from repro.noc import packet
from repro.noc.packet import CollectiveOp
from repro.obs import ObsSpec
from repro.sim.session import SimulationSession


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
    delivery map (creation order), the per-receiver accumulator and the
    profile's kernel counters (``None`` on the oracle)."""
    ops = []
    init = CollectiveOp.__init__

    def recording(self, *args, **kw):
        init(self, *args, **kw)
        ops.append(self)

    with monkeypatch.context() as m:
        m.setattr(packet.CollectiveOp, "__init__", recording)
        session = SimulationSession(config)
        if before is not None:
            before(session)
        summary = session.run()
    d = session.collector.delivery
    kc = session.profiler.report().get("kernel_counters")
    return (summary, [op.deliveries for op in ops],
            (d.n, d.mean, d._m2, d.min, d.max), kc)


@pytest.mark.parametrize("kind,before", [
    ("quarc", None), ("quarc", _multicast), ("mesh", None), ("torus", None),
], ids=["quarc", "quarc-multicast", "mesh", "torus"])
def test_engine_tails_equal_the_oracles(kind, before, monkeypatch,
                                        engines_built):
    config = make_config(kind=kind, n=16, msg_len=6, beta=0.1, rate=0.05,
                         cycles=700, warmup=150, seed=11,
                         obs=ObsSpec(profile=True))
    *got, kc = _run(config, monkeypatch, before)
    *want, _ = _run(config.with_backend("reference"), monkeypatch, before)
    assert len({*engines_built}) == 2
    assert got == want
    assert got[2][0] > 100 and len(got[1]) > 10
    # no tail of these runs needed a Packet or an adapter
    assert kc["tails_receive_tail"] == 0 < kc["tails_collector"]
    assert (kc["tails_collector"] + kc["tails_unicast"]
            == kc["tails_delivered"])


@pytest.mark.parametrize("cls", (QuarcTransceiver, SpidergonAdapter,
                                 DORAdapter))
def test_adapters_keep_only_their_topology(cls):
    """Accepting a message, delivering a tail and regenerating a relay
    hop are ``Adapter``'s; the array engine relies on them being the
    same everywhere."""
    assert not {"send", "receive_tail", "_relay_forward"} & set(vars(cls))
