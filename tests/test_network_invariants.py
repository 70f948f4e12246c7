"""Property-based and invariant tests for the network fabric.

The heavyweight invariants:

* **conservation** -- every generated message is eventually delivered
  (unicast: once; broadcast: at all N-1 nodes) and the network drains;
* **deadlock freedom** -- under arbitrary admissible workloads the
  network always drains once generation stops (the dateline 2-VC
  discipline at work);
* **buffer discipline** -- lane occupancy never exceeds capacity (the
  push() overflow guard would raise, so a clean run is the proof).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import build_network
from repro.core.collector import LatencyCollector
from repro.noc.buffers import FlitBuffer
from repro.noc.packet import UNICAST, Packet
from repro.traffic.mix import TrafficMix


class TestBufferDiscipline:
    def test_push_pop_fifo(self):
        buf = FlitBuffer(4, "t")
        p = Packet(0, 1, 3)
        for i in range(3):
            buf.push(p, i)
        assert len(buf) == 3
        assert [buf.pop()[1] for _ in range(3)] == [0, 1, 2]
        assert buf.empty

    def test_overflow_raises(self):
        buf = FlitBuffer(2, "t")
        p = Packet(0, 1, 5)
        buf.push(p, 0)
        buf.push(p, 1)
        assert buf.full
        with pytest.raises(OverflowError):
            buf.push(p, 2)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FlitBuffer(0, "t")

    def test_switching_state_cleared(self):
        buf = FlitBuffer(4, "t")
        buf.cur_vc = 1
        buf.cur_deliver = True
        buf.clear_switching()
        assert buf.cur_out is None
        assert buf.cur_vc == 0
        assert not buf.cur_deliver


class TestPacketValidation:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(0, 1, 0)

    def test_collective_op_validation(self):
        from repro.noc.packet import CollectiveOp
        with pytest.raises(ValueError):
            CollectiveOp(0, 0, expected=0)

    def test_collective_duplicate_delivery_idempotent(self):
        from repro.noc.packet import CollectiveOp
        op = CollectiveOp(0, 0, expected=2)
        assert not op.deliver(1, 5)
        assert not op.deliver(1, 6)      # duplicate ignored
        assert op.deliveries[1] == 5
        assert op.deliver(2, 7)          # completes
        assert op.completion_latency == 7


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["quarc", "spidergon"]),
       seed=st.integers(0, 10_000),
       rate=st.floats(0.005, 0.04),
       msg_len=st.integers(1, 24),
       beta=st.floats(0.0, 0.25))
def test_random_workloads_conserve_and_drain(kind, seed, rate, msg_len,
                                             beta):
    """Hypothesis: any admissible workload drains without deadlock and
    delivers everything exactly as often as expected."""
    n = 16
    coll = LatencyCollector()
    net, _ = build_network(kind, n, collector=coll)
    mix = TrafficMix(net, rate, msg_len, beta, seed=seed)
    for t in range(400):
        mix.generate(t)
        net.step(t)
    net.drain(max_cycles=3_000_000)

    assert net.total_flits() == 0
    assert coll.delivered_unicast == mix.generated_unicasts
    assert coll.completed_collective == mix.generated_broadcasts
    # every broadcast delivered to all N-1 receivers exactly once
    assert coll.delivery.n == mix.generated_broadcasts * (n - 1)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mesh_torus_random_workloads_drain(seed):
    for kind in ("mesh", "torus"):
        coll = LatencyCollector()
        net, _ = build_network(kind, 16, collector=coll)
        mix = TrafficMix(net, 0.03, 6, beta=0.05, seed=seed)
        for t in range(300):
            mix.generate(t)
            net.step(t)
        net.drain(max_cycles=2_000_000)
        assert coll.delivered_unicast == mix.generated_unicasts
        assert coll.completed_collective == mix.generated_broadcasts


class TestStressNoDeadlock:
    @pytest.mark.parametrize("kind", ["quarc", "spidergon"])
    def test_sustained_overload_then_drain(self, kind):
        """Drive far past saturation, then stop: a deadlock-free network
        must still empty (the backlog is finite)."""
        coll = LatencyCollector()
        net, _ = build_network(kind, 16, collector=coll)
        mix = TrafficMix(net, 0.25, 8, beta=0.1, seed=99)
        for t in range(600):
            mix.generate(t)
            net.step(t)
        net.drain(max_cycles=5_000_000)
        assert coll.delivered_unicast == mix.generated_unicasts
        assert coll.completed_collective == mix.generated_broadcasts

    def test_all_nodes_broadcast_simultaneously(self):
        """The BRCP deadlock-freedom claim: 'regardless of the number of
        concurrent broadcast operations' (Sec. 2.5.2)."""
        coll = LatencyCollector()
        net, _ = build_network("quarc", 16, collector=coll)
        ops = [net.adapters[i].send_broadcast(8, 0) for i in range(16)]
        net.drain(max_cycles=1_000_000)
        assert all(op.complete for op in ops)
        assert coll.delivery.n == 16 * 15

    def test_all_nodes_broadcast_simultaneously_spidergon(self):
        coll = LatencyCollector()
        net, _ = build_network("spidergon", 16, collector=coll)
        ops = [net.adapters[i].send_broadcast(4, 0) for i in range(16)]
        net.drain(max_cycles=2_000_000)
        assert all(op.complete for op in ops)


class TestDatelineDiscipline:
    def test_vclass_upgrades_on_wrap(self):
        """A packet whose rim leg wraps the dateline ends on VC class 1."""
        net, _ = build_network("quarc", 16)
        pkt = Packet(14, 2, 4, UNICAST)     # CW path 14->15->0->1->2
        net.adapters[14].send(pkt, 0)
        net.drain()
        assert pkt.vclass == 1

    def test_vclass_stays_zero_without_wrap(self):
        net, _ = build_network("quarc", 16)
        pkt = Packet(2, 5, 4, UNICAST)
        net.adapters[2].send(pkt, 0)
        net.drain()
        assert pkt.vclass == 0


class TestNetworkApi:
    def test_mismatched_router_adapter_counts(self):
        from repro.noc.network import Network
        net, _ = build_network("quarc", 8)
        with pytest.raises(ValueError):
            Network(net.wiring, net.adapters[:-1])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_network("hypercube", 16)

    def test_drain_reports_deadlock_suspicion(self):
        """drain() must raise (not loop) if flits cannot move."""
        net, _ = build_network("quarc", 8)
        pkt = Packet(0, 2, 4, UNICAST)
        net.adapters[0].send(pkt, 0)
        with pytest.raises(RuntimeError):
            net.drain(max_cycles=0)
