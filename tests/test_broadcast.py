"""Broadcast and multicast semantics on both architectures.

Zero-load closed forms (derived from the switch pipelines, verified here):

* Quarc true broadcast: all four branch packets inject concurrently; the
  longest branch is q = N/4 hops, so completion = ``q + (M - 1)``.
* Spidergon broadcast-by-unicast: the CW chain of ``ceil((N-1)/2)``
  neighbour segments dominates; the first segment costs M cycles and each
  relay (absorb + regenerate + re-inject) costs ``M + 1`` more, so
  completion = ``ceil((N-1)/2) * (M + 1) - 1``.

The ~``(N/2 * M) / (N/4 + M)`` ratio between the two *is* the paper's
order-of-magnitude broadcast claim.
"""

import pytest

from helpers import drain
from repro.core.api import build_network
from repro.core.collector import LatencyCollector


def run_broadcast(kind, n, size, src=0, **build_kwargs):
    coll = LatencyCollector()
    net, _ = build_network(kind, n, collector=coll, **build_kwargs)
    op = net.adapters[src].send_broadcast(size, 0)
    drain(net)
    return op, coll, net


class TestQuarcBroadcast:
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("size", [1, 8, 16])
    def test_zero_load_completion_formula(self, n, size):
        op, _, _ = run_broadcast("quarc", n, size)
        assert op.complete
        assert op.completion_latency == n // 4 + size - 1

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("src", [0, 5, 7])
    def test_every_other_node_receives_exactly_once(self, n, src):
        src %= n
        op, _, _ = run_broadcast("quarc", n, 4, src=src)
        assert sorted(op.deliveries) == sorted(set(range(n)) - {src})

    def test_antipode_receives_once_despite_two_cross_streams(self):
        op, _, _ = run_broadcast("quarc", 16, 8)
        assert 8 in op.deliveries
        # the XL branch covers it on arrival: cross hop + serialisation
        assert op.deliveries[8] == 1 + 8 - 1

    def test_nearer_nodes_receive_earlier(self):
        op, _, _ = run_broadcast("quarc", 16, 4)
        assert op.deliveries[1] < op.deliveries[3]   # CW rim order
        assert op.deliveries[15] < op.deliveries[13]  # CCW rim order

    def test_network_drains_completely(self):
        _, _, net = run_broadcast("quarc", 32, 16)
        assert net.total_flits() == 0

    def test_collector_records_completion(self):
        op, coll, _ = run_broadcast("quarc", 16, 8)
        assert coll.completed_collective == 1
        assert coll.collective.overall.n == 1
        assert coll.collective.overall.mean == op.completion_latency
        assert coll.delivery.n == 15


class TestSpidergonBroadcast:
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_zero_load_completion_formula(self, n, size):
        op, _, _ = run_broadcast("spidergon", n, size)
        assert op.complete
        chain = (n - 1 + 1) // 2
        assert op.completion_latency == chain * (size + 1) - 1

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_every_other_node_receives(self, n):
        op, _, _ = run_broadcast("spidergon", n, 4, src=3)
        assert sorted(op.deliveries) == sorted(set(range(n)) - {3})

    def test_relay_segments_counted(self):
        _, coll, _ = run_broadcast("spidergon", 16, 4)
        # N-1 total segments; 2 injected at the source, rest regenerated
        assert coll.relay_segments == 15 - 2

    def test_store_and_forward_chain_times(self):
        """Each successive CW relay lands M+1 cycles after the previous."""
        op, _, _ = run_broadcast("spidergon", 16, 8)
        times = [op.deliveries[d] for d in (1, 2, 3, 4)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == [9, 9, 9]


class TestOrderOfMagnitudeClaim:
    @pytest.mark.parametrize("n,size", [(16, 8), (32, 16), (64, 16)])
    def test_quarc_vs_spidergon_zero_load_ratio(self, n, size):
        """The paper's headline: ~an order of magnitude at scale."""
        q, _, _ = run_broadcast("quarc", n, size)
        s, _, _ = run_broadcast("spidergon", n, size)
        ratio = s.completion_latency / q.completion_latency
        expected = ((n // 2) * (size + 1) - 1) / (n // 4 + size - 1)
        assert ratio == pytest.approx(expected, rel=1e-9)
        assert ratio > 3.0
        if n == 64:
            assert ratio > 10.0      # the order of magnitude


class TestMulticast:
    def test_quarc_multicast_hits_exactly_targets(self):
        coll = LatencyCollector()
        net, _ = build_network("quarc", 16, collector=coll)
        targets = [2, 5, 8, 11, 14]
        op = net.adapters[0].send_multicast(targets, 4, 0)
        drain(net)
        assert sorted(op.deliveries) == targets
        assert op.complete

    def test_quarc_multicast_non_targets_not_delivered(self):
        """Nodes on the path but not in the bitstring only forward."""
        coll = LatencyCollector()
        net, _ = build_network("quarc", 16, collector=coll)
        op = net.adapters[0].send_multicast([4], 4, 0)   # via 1, 2, 3
        drain(net)
        assert sorted(op.deliveries) == [4]

    def test_spidergon_multicast_hits_exactly_targets(self):
        coll = LatencyCollector()
        net, _ = build_network("spidergon", 16, collector=coll)
        targets = [1, 4, 7, 12, 15]
        op = net.adapters[0].send_multicast(targets, 4, 0)
        drain(net)
        assert sorted(op.deliveries) == targets

    def test_broadcast_equals_full_multicast(self):
        """Broadcast is the special case of multicast targeting everyone
        (Sec. 2.5.3) -- same receivers, commensurate timing."""
        coll = LatencyCollector()
        net, _ = build_network("quarc", 16, collector=coll)
        op = net.adapters[0].send_multicast(list(range(1, 16)), 8, 0)
        drain(net)
        assert sorted(op.deliveries) == list(range(1, 16))
        bc, _, _ = run_broadcast("quarc", 16, 8)
        assert op.completion_latency == bc.completion_latency

    def test_multicast_source_excluded(self):
        coll = LatencyCollector()
        net, _ = build_network("quarc", 16, collector=coll)
        op = net.adapters[0].send_multicast([0, 3], 4, 0)
        drain(net)
        assert sorted(op.deliveries) == [3]

    def test_empty_target_set_rejected(self):
        net, _ = build_network("quarc", 16)
        with pytest.raises(ValueError):
            net.adapters[0].send_multicast([0], 4, 0)


class TestAblationModes:
    def test_quarc_relay_mode_broadcast_still_correct_but_slow(self):
        fast, _, _ = run_broadcast("quarc", 16, 8)
        slow, _, _ = run_broadcast("quarc", 16, 8, bcast_mode="relay")
        assert sorted(slow.deliveries) == sorted(fast.deliveries)
        assert slow.completion_latency > 3 * fast.completion_latency
