"""Unit tests for the mesh/torus dimension-order routers."""

import pytest

from helpers import drain, send_one
from repro.core.api import build_network
from repro.core.collector import LatencyCollector
from repro.noc.packet import UNICAST, Packet


def mesh_router(node=0, n=16):
    net, topo = build_network("mesh", n)
    return net.routers[node], net.routers, topo


class TestMeshWiring:
    def test_corner_has_dangling_ports(self):
        r, _, _ = mesh_router(node=0)   # NW corner of a 4x4
        # west/north outputs exist but are never routed to
        assert r.w_out.down == [None, None]
        assert r.n_out.down == [None, None]
        assert r.e_out.down[0] is not None

    def test_interior_fully_wired(self):
        r, routers, topo = mesh_router(node=5)   # (1,1)
        assert r.e_out.down[0] is routers[6].bufs_w[0]
        assert r.s_out.down[1] is routers[9].bufs_n[1]

    def test_xy_turn_feeders(self):
        """Y outputs accept X through-traffic; X outputs do not accept Y
        traffic (the XY deadlock-freedom condition)."""
        r, _, _ = mesh_router(node=5)
        x_feeder_ids = {id(b) for b in r.e_out.feeders}
        for b in r.bufs_n + r.bufs_s:
            assert id(b) not in x_feeder_ids
        y_feeder_ids = {id(b) for b in r.s_out.feeders}
        for b in r.bufs_e + r.bufs_w:
            assert id(b) in y_feeder_ids


class TestMeshRouting:
    def test_route_east_then_south(self):
        r, _, _ = mesh_router(node=0)
        pkt = Packet(0, 15, 4, UNICAST)
        port, clone = r.route_head(r.local_q, pkt)
        assert port is r.e_out and not clone

    def test_eject_at_destination(self):
        r, _, _ = mesh_router(node=5)
        assert r.route_head(r.bufs_w[0], Packet(4, 5, 4))[0] is r.eject

    def test_turn_resets_vclass(self):
        r, _, _ = mesh_router(node=1)
        pkt = Packet(0, 13, 4, UNICAST)   # (0,0) -> (3,1): turn at (0,1)
        pkt.vclass = 1
        port, _ = r.route_head(r.bufs_w[0], pkt)
        assert port is r.s_out
        assert pkt.vclass == 0


class TestTorusRouting:
    def test_wrap_route_shorter(self):
        r0 = build_network("torus", 16)[0].routers[0]
        # (0,0) -> (0,3): west wrap is 1 hop vs 3 east
        port, _ = r0.route_head(r0.local_q, Packet(0, 3, 4, UNICAST))
        assert port is r0.w_out

    def test_wrap_ports_are_datelines(self):
        routers = build_network("torus", 16)[0].routers
        assert routers[3].e_out.is_dateline     # (0,3): east edge
        assert not routers[5].e_out.is_dateline     # interior
        # the mesh has no wrap links, so no datelines either
        mesh = build_network("mesh", 16)[0].routers
        assert not any(p.is_dateline for r in mesh for p in r.out_ports)


class TestDORAdapter:
    def test_unicast_accounting(self):
        coll = LatencyCollector()
        net, _ = build_network("mesh", 16, collector=coll)
        send_one(net, 0, 15, 4)
        drain(net)
        assert coll.delivered_unicast == 1

    def test_software_broadcast_serialises(self):
        """Mesh broadcast = N-1 unicasts through one port: completion is
        bounded below by the serialisation of (N-1) * M flits."""
        coll = LatencyCollector()
        net, _ = build_network("mesh", 16, collector=coll)
        op = net.adapters[0].send_broadcast(4, 0)
        drain(net)
        assert op.complete
        assert op.completion_latency >= 15 * 4 - 1

    def test_torus_broadcast_beats_mesh(self):
        """Wraparound shortens the tail of the delivery distribution."""
        results = {}
        for kind in ("mesh", "torus"):
            coll = LatencyCollector()
            net, _ = build_network(kind, 16, collector=coll)
            op = net.adapters[0].send_broadcast(4, 0)
            drain(net)
            results[kind] = op.completion_latency
        assert results["torus"] <= results["mesh"]

    def test_multicast(self):
        coll = LatencyCollector()
        net, _ = build_network("torus", 16, collector=coll)
        op = net.adapters[0].send_multicast([3, 9, 12], 4, 0)
        drain(net)
        assert sorted(op.deliveries) == [3, 9, 12]

    def test_rejects_collective_via_send(self):
        net, _ = build_network("mesh", 16)
        from repro.noc.packet import BROADCAST
        with pytest.raises(ValueError):
            net.adapters[0].send(Packet(0, 1, 4, BROADCAST), 0)

    def test_non_square_networks(self):
        coll = LatencyCollector()
        net, topo = build_network("mesh", 8, cols=4, collector=coll)
        send_one(net, 0, 7, 4)
        drain(net)
        assert coll.unicast.overall.mean == topo.hops(0, 7) + 3
