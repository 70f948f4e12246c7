"""Unit tests at the switch level: port wiring, routing tables, arbitration.

These pin the micro-architecture described in Secs. 2.3-2.5 -- which
ingress can reach which output, where the paper's "no routing logic"
claim shows up, and how the round-robin arbitration shares an output.
"""

import pytest

from repro.core.api import build_network
from repro.core.quarc_router import QuarcRouter
from repro.core.spidergon_router import SpidergonRouter
from repro.noc.packet import BROADCAST, MULTICAST, UNICAST, Packet


def quarc_router(n=16, node=0, **kw):
    routers = [QuarcRouter(i, n, **kw) for i in range(n)]
    for r in routers:
        r.connect(routers)
    return routers[node], routers


def spid_router(n=16, node=0, **kw):
    routers = [SpidergonRouter(i, n, **kw) for i in range(n)]
    for r in routers:
        r.connect(routers)
    return routers[node], routers


class TestQuarcWiring:
    def test_port_inventory(self):
        r, _ = quarc_router()
        names = {p.name for p in r.out_ports}
        assert names == {"cw_out", "ccw_out", "xr_out", "xl_out",
                         "ej_cw", "ej_ccw", "ej_xr", "ej_xl"}

    def test_rim_outputs_have_three_sources(self):
        """Matches the paper's OPC master FSM with grant_a/b/c."""
        r, _ = quarc_router()
        # feeders: 2 VC lanes each of {through, cross-turn} + 1 local queue
        assert len(r.cw_out.feeders) == 5
        assert len(r.ccw_out.feeders) == 5

    def test_cross_outputs_have_one_source(self):
        r, _ = quarc_router()
        assert len(r.xr_out.feeders) == 1
        assert len(r.xl_out.feeders) == 1

    def test_ejection_is_per_ingress(self):
        r, _ = quarc_router()
        for ej in (r.ej_cw, r.ej_ccw, r.ej_xr, r.ej_xl):
            assert ej.is_ejection
            assert len(ej.feeders) == 2    # the ingress's two VC lanes

    def test_links_wired_to_correct_neighbours(self):
        r, routers = quarc_router(n=16, node=3)
        assert r.cw_out.down[0] is routers[4].bufs_cw[0]
        assert r.ccw_out.down[1] is routers[2].bufs_ccw[1]
        assert r.xr_out.down[0] is routers[11].bufs_xr[0]
        assert r.xl_out.down[0] is routers[11].bufs_xl[0]

    def test_dateline_flags(self):
        _, routers = quarc_router()
        assert routers[15].cw_out.is_dateline
        assert not routers[3].cw_out.is_dateline
        assert routers[0].ccw_out.is_dateline


class TestQuarcRouting:
    def test_no_routing_logic(self):
        """Each network ingress has exactly two legal outputs."""
        r, _ = quarc_router(node=0)
        cw_buf = r.bufs_cw[0]
        assert r.route_head(cw_buf, Packet(14, 0, 4))[0] is r.ej_cw
        assert r.route_head(cw_buf, Packet(14, 2, 4))[0] is r.cw_out

    def test_local_queues_fixed_output(self):
        r, _ = quarc_router(node=0)
        assert r.route_head(r.loc_r, Packet(0, 2, 4))[0] is r.cw_out
        assert r.route_head(r.loc_l, Packet(0, 14, 4))[0] is r.ccw_out
        assert r.route_head(r.loc_xr, Packet(0, 10, 4))[0] is r.xr_out
        assert r.route_head(r.loc_xl, Packet(0, 7, 4))[0] is r.xl_out

    def test_broadcast_clones_on_rim_and_xl(self):
        r, _ = quarc_router(node=2)
        bc = Packet(0, 4, 4, BROADCAST)
        for buf in (r.bufs_cw[0], r.bufs_ccw[0]):
            port, clone = r.route_head(buf, bc)
            assert clone
        # XL ingress clones (it covers the antipode)...
        bc_xl = Packet(10, 7, 4, BROADCAST)   # 2 is 10's antipode
        port, clone = r.route_head(r.bufs_xl[0], bc_xl)
        assert clone and port is r.ccw_out
        # ...but XR does not (dedup at the antipode)
        bc_xr = Packet(10, 5, 4, BROADCAST)
        port, clone = r.route_head(r.bufs_xr[0], bc_xr)
        assert not clone and port is r.cw_out

    def test_broadcast_absorbs_only_at_destination(self):
        r, _ = quarc_router(node=4)
        bc = Packet(0, 4, 4, BROADCAST)
        port, clone = r.route_head(r.bufs_cw[0], bc)
        assert port is r.ej_cw and not clone

    def test_multicast_clone_follows_bitstring(self):
        r, _ = quarc_router(node=2)
        hit = Packet(0, 4, 4, MULTICAST, bitstring=0b100)   # hop 2 = node 2
        miss = Packet(0, 4, 4, MULTICAST, bitstring=0b1000)
        assert r.route_head(r.bufs_cw[0], hit)[1]
        assert not r.route_head(r.bufs_cw[0], miss)[1]


class TestSpidergonWiring:
    def test_port_inventory(self):
        r, _ = spid_router()
        assert {p.name for p in r.out_ports} == {
            "cw_out", "ccw_out", "x_out", "eject"}

    def test_single_ejection_port_shared(self):
        r, _ = spid_router()
        assert len(r.eject.feeders) == 6    # all three ingress x 2 lanes

    def test_cross_wired_to_antipode(self):
        r, routers = spid_router(node=5)
        assert r.x_out.down[0] is routers[13].bufs_x[0]

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            SpidergonRouter(0, 15)


class TestSpidergonRouting:
    def test_across_first_from_local(self):
        r, _ = spid_router(node=0)
        assert r.route_head(r.local_q, Packet(0, 3, 4))[0] is r.cw_out
        assert r.route_head(r.local_q, Packet(0, 13, 4))[0] is r.ccw_out
        assert r.route_head(r.local_q, Packet(0, 8, 4))[0] is r.x_out
        assert r.route_head(r.local_q, Packet(0, 6, 4))[0] is r.x_out

    def test_cross_ingress_picks_shorter_rim(self):
        r, _ = spid_router(node=8)
        assert r.route_head(r.bufs_x[0], Packet(0, 10, 4))[0] is r.cw_out
        assert r.route_head(r.bufs_x[0], Packet(0, 6, 4))[0] is r.ccw_out
        assert r.route_head(r.bufs_x[0], Packet(0, 8, 4))[0] is r.eject

    def test_replication_queue_routes_to_neighbour(self):
        r, _ = spid_router(node=4)
        relay_cw = Packet(4, 5, 4)
        relay_ccw = Packet(4, 3, 4)
        assert r.route_head(r.repl_q, relay_cw)[0] is r.cw_out
        assert r.route_head(r.repl_q, relay_ccw)[0] is r.ccw_out

    def test_never_clones(self):
        r, _ = spid_router(node=2)
        bc = Packet(0, 5, 4, BROADCAST)
        assert r.route_head(r.bufs_cw[0], bc)[1] is False


class TestArbitration:
    def test_contending_worms_serialise_without_idle_gaps(self):
        """Two same-VC-class worms contending for one rim output must
        serialise (wormhole: a VC is held until the tail passes) with no
        dead cycles between them."""
        net, _ = build_network("quarc", 16)
        # node 1's cw_out is fed by through traffic (0 -> 2..) and local
        a = Packet(0, 4, 12, UNICAST)      # passes through node 1
        b = Packet(1, 4, 12, UNICAST)      # injected at node 1
        net.adapters[0].send(a, 0)
        net.adapters[1].send(b, 0)
        deliveries = {}
        net.on_tail = lambda node, pkt, now: deliveries.setdefault(
            pkt.pid, now)
        net.drain()
        t_first, t_second = sorted([deliveries[a.pid], deliveries[b.pid]])
        # the loser's tail lands exactly one worm behind the winner's:
        # back-to-back service on the shared link, no wasted slots
        assert t_second - t_first <= 12
        assert t_second <= 27

    def test_wormhole_body_follows_header_without_rerouting(self):
        """Once switched, a worm's flits stay on the allocated VC/port:
        delivery times of consecutive flits are back-to-back."""
        net, _ = build_network("quarc", 16)
        flit_times = []
        orig_deliver = net.deliver

        def spy(node, pkt, fidx, now):
            flit_times.append((fidx, now))
            orig_deliver(node, pkt, fidx, now)

        net.deliver = spy
        net.adapters[0].send(Packet(0, 2, 6, UNICAST), 0)
        net.drain()
        times = [t for _, t in sorted(flit_times)]
        assert [b - a for a, b in zip(times, times[1:])] == [1] * 5
