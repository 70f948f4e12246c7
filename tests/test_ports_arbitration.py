"""Focused tests for OutPort arbitration: VC policies, credits, fairness."""

import pytest

from repro.noc.buffers import FlitBuffer
from repro.noc.packet import Packet
from repro.noc.ports import OutPort
from repro.noc.router import Router, commit_move


class OnePortRouter(Router):
    """Minimal router: every feeder routes to the single output port."""

    __slots__ = ("port",)

    def __init__(self, node=0, n=2, vc_policy="dateline",
                 is_dateline=False):
        super().__init__(node, n)
        self.port = self.new_port("out", is_dateline=is_dateline,
                                  vc_policy=vc_policy)

    def route_head(self, buf, pkt):
        return self.port, False


class SinkNet:
    """Records deliveries so commit_move can run without a full network."""

    def __init__(self):
        self.delivered = []

    def deliver(self, node, pkt, fidx, now):
        self.delivered.append((node, pkt.pid, fidx, now))


def feeder(router, label="f", capacity=8):
    buf = router.new_buffer(capacity, label)
    router.port.add_feeder(buf)
    return buf


def downstream(capacity=4):
    other = OnePortRouter(node=1)
    return [FlitBuffer(capacity, f"d{v}", router=other) for v in (0, 1)]


class TestVcPolicies:
    def test_dateline_policy_pins_vc_to_class(self):
        r = OnePortRouter()
        buf = feeder(r)
        r.port.connect(downstream())
        pkt = Packet(0, 1, 2)
        pkt.vclass = 1
        buf.push(pkt, 0)
        mv = r.port.arbitrate()
        assert mv is not None and mv[2] == 1

    def test_dateline_link_upgrades(self):
        r = OnePortRouter(is_dateline=True)
        buf = feeder(r)
        down = downstream()
        r.port.connect(down)
        pkt = Packet(0, 1, 2)
        buf.push(pkt, 0)
        mv = r.port.arbitrate()
        assert mv[2] == 1
        commit_move(mv, 0, SinkNet())
        assert pkt.vclass == 1
        assert len(down[1]) == 1

    def test_any_policy_falls_over_to_free_vc(self):
        r = OnePortRouter(vc_policy="any")
        a, b = feeder(r, "a"), feeder(r, "b")
        r.port.connect(downstream())
        long_pkt = Packet(0, 1, 5)
        a.push(long_pkt, 0)
        mv = r.port.arbitrate()
        commit_move(mv, 0, SinkNet())        # a now owns VC0
        b.push(Packet(0, 1, 3), 0)
        mv2 = r.port.arbitrate()
        assert mv2 is not None
        assert mv2[0] is b and mv2[2] == 1   # granted the other VC

    def test_dateline_policy_blocks_on_held_vc(self):
        r = OnePortRouter(vc_policy="dateline")
        a, b = feeder(r, "a"), feeder(r, "b")
        r.port.connect(downstream())
        long_pkt = Packet(0, 1, 5)
        for i in range(5):
            a.push(long_pkt, i)
        commit_move(r.port.arbitrate(), 0, SinkNet())   # a owns VC0
        b.push(Packet(0, 1, 3), 0)           # same class 0, VC0 held by a
        mv = r.port.arbitrate()
        assert mv[0] is a                    # b must wait; a streams on

    def test_invalid_policy_rejected(self):
        r = OnePortRouter()
        with pytest.raises(ValueError):
            OutPort("x", r, vc_policy="roulette")


class TestCredits:
    def test_no_grant_without_downstream_space(self):
        r = OnePortRouter()
        buf = feeder(r)
        down = downstream(capacity=1)
        r.port.connect(down)
        sink = SinkNet()
        buf.push(Packet(0, 1, 3), 0)
        buf.push(Packet(0, 1, 3), 1)
        commit_move(r.port.arbitrate(), 0, sink)
        assert r.port.arbitrate() is None    # downstream full
        down[0].pop()                        # credit returns
        assert r.port.arbitrate() is not None

    def test_ejection_always_has_space(self):
        r = OnePortRouter(vc_policy="any")
        buf = feeder(r)
        # down stays [None, None] -> ejection
        sink = SinkNet()
        pkt = Packet(0, 1, 3)
        for i in range(3):
            buf.push(pkt, i)
        for t in range(3):
            commit_move(r.port.arbitrate(), t, sink)
        assert [f for (_, _, f, _) in sink.delivered] == [0, 1, 2]
        assert sink.delivered[-1][3] == 2


class TestWormholeOwnership:
    def test_body_flits_follow_header_vc(self):
        r = OnePortRouter()
        buf = feeder(r)
        down = downstream()
        r.port.connect(down)
        sink = SinkNet()
        pkt = Packet(0, 1, 4)
        for i in range(4):
            buf.push(pkt, i)
        vcs = []
        for t in range(4):
            mv = r.port.arbitrate()
            vcs.append(mv[2])
            commit_move(mv, t, sink)
        assert vcs == [0, 0, 0, 0]
        assert r.port.owner[0] is None       # released at the tail

    def test_tail_releases_for_next_packet(self):
        r = OnePortRouter()
        buf = feeder(r)
        r.port.connect(downstream(capacity=8))
        sink = SinkNet()
        p1, p2 = Packet(0, 1, 2), Packet(0, 1, 2)
        for pkt in (p1, p2):
            for i in range(2):
                buf.push(pkt, i)
        seen = []
        for t in range(4):
            mv = r.port.arbitrate()
            seen.append(mv[0].q[0][0].pid)
            commit_move(mv, t, sink)
        assert seen == [p1.pid, p1.pid, p2.pid, p2.pid]

    def test_single_flit_packet_never_holds_vc(self):
        r = OnePortRouter()
        buf = feeder(r)
        r.port.connect(downstream())
        sink = SinkNet()
        buf.push(Packet(0, 1, 1), 0)
        commit_move(r.port.arbitrate(), 0, sink)
        assert r.port.owner == [None, None]
        assert buf.cur_out is None


class TestFairness:
    def test_round_robin_rotates_between_head_flits(self):
        """Single-flit packets from two feeders alternate grants."""
        r = OnePortRouter(vc_policy="any")
        a, b = feeder(r, "a"), feeder(r, "b")
        r.port.connect(downstream(capacity=8))
        sink = SinkNet()
        pkts = {}
        for i in range(3):
            pa, pb = Packet(0, 1, 1), Packet(0, 1, 1)
            pkts[pa.pid] = "a"
            pkts[pb.pid] = "b"
            a.push(pa, 0)
            b.push(pb, 0)
        order = []
        for t in range(6):
            mv = r.port.arbitrate()
            order.append(pkts[mv[0].q[0][0].pid])
            commit_move(mv, t, sink)
        assert order == ["a", "b", "a", "b", "a", "b"]
