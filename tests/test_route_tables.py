"""Array-engine route tables: built arithmetically, equal to the probe.

The routers answer ``route_table`` / ``unicast_route_table`` with numpy
columns computed from ``(role, dst - node)`` or ``(role, dx, dy)``;
``Router._probe_route_table`` (``route_head`` once per destination) and
the row-packing loop in ``helpers.probed_route_tables`` are the scalar
oracles they must equal entry for entry.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import probed_route_tables

from repro.core.api import build_network
from repro.core.dor_router import MeshRouter
from repro.core.quarc_transceiver import QuarcTransceiver
from repro.noc.packet import BROADCAST, MULTICAST, RELAY
from repro.noc.router import Router
from repro.sim import array_backend
from repro.sim.array_backend import ArrayBackend
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.workload import WorkloadSpec

KINDS = ("quarc", "spidergon", "mesh", "torus")

#: (kind, n, cols): rings at N = 8/16/64, grids 4x2, 2x4, 4x4, 2x8, 8x2, 8x8
SHAPES = ([(k, n, 0) for k in ("quarc", "spidergon") for n in (8, 16, 64)]
          + [(k, n, cols) for k in ("mesh", "torus")
             for n, cols in ((8, 2), (8, 4), (16, 4), (16, 8), (16, 2),
                             (64, 8))])


def _route_head_owners():
    """Every class in the Router hierarchy that defines ``route_head``."""
    seen, todo = [], [Router]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "route_head" in vars(cls):
            seen.append(cls)
    return seen


@pytest.mark.parametrize("kind,n,cols", SHAPES)
def test_vectorised_columns_equal_probe(kind, n, cols):
    net, _ = build_network(kind, n, cols=cols)
    cloning = set()
    for router in net.routers:
        for buf in router.in_bufs:
            where = (kind, n, router.node, buf.role)
            probe = router._probe_route_table(buf)
            uni = router.unicast_route_table(buf.role)
            assert uni is not None
            slot, deliver, vreset, *bclone = uni
            bclone = bclone[0].tolist() if bclone else [False] * n
            assert len(slot) == len(deliver) == len(vreset) == n
            rows = [(router.out_ports[s], d, v) for s, d, v in
                    zip(slot.tolist(), deliver.tolist(), vreset.tolist())]
            assert rows == probe, where
            # a relay segment routes like a unicast; a broadcast takes
            # the same port and adds exactly the fourth column's clone
            assert router._probe_route_table(buf, RELAY) == probe, where
            assert router._probe_route_table(buf, BROADCAST) == [
                (p, d or c, v) for (p, d, v), c in zip(rows, bclone)], where
            if any(bclone):
                cloning.add(buf.role)
            every = router.route_table(buf.role)
            if router._probe_route_table(buf, MULTICAST) != probe:
                # the multicast bitstring decides the clone: not tabulated
                assert every is None, where
            else:
                assert [c.tolist() for c in every] == \
                    [c.tolist() for c in uni[:3]], where
    # CW_IN, CCW_IN and XL_IN clone a passing broadcast; XR_IN never
    assert cloning == ({0, 1, 3} if kind == "quarc" else set())


def test_vclass_reset_column_is_exercised():
    """The mesh / torus dimension turn must show up in the oracle the
    columns are compared against, or the comparison proves nothing."""
    for kind in ("mesh", "torus"):
        net, _ = build_network(kind, 16)
        router = net.routers[5]
        turns = [v for _, _, v in router._probe_route_table(router.local_q)]
        assert any(turns) and not all(turns)


#: ``kind@n`` (n = 64 when omitted): the Quarc at N = 8 .. 384, the
#: Spidergon at 8 / 24 / 64, the torus on 4x4, 8x6, 8x8 and 16x16, the
#: mesh on 4x4 and 8x8.
PACKED = (
    [f"quarc{at}" for at in ("", "@8", "@16", "@24", "@384")]
    + ["spidergon", "spidergon@8", "spidergon@24"]
    + ["torus", "torus@16", "torus@48", "torus@256", "mesh", "mesh@16"])


def _decoded(be, b):
    """Row ``b``'s entries over absolute destinations as the kernel
    reads them (``repro_refresh``), the port field made flat."""
    n = be.net.n
    ent = be._rtab[be._rrow[b], (np.arange(n) - be._rsh[b]) % n]
    slot = (ent >> 4) & 0xFFFFF
    return (ent ^ (slot << 4)) | ((be._pbase[b] + slot) << 4)


@pytest.mark.parametrize("kind", PACKED)
def test_packed_tables_equal_probed_oracle(kind):
    kind, _, n = kind.partition("@")
    net, _ = build_network(kind, int(n or 64))
    be = ArrayBackend(net)
    oracle, oracle_all = probed_route_tables(be)
    # rtflag: 2 = the row holds for every class, 1 = every class but
    # multicast
    assert [f == 2 for f in be._rtflag[:be._B].tolist()] == oracle_all
    assert all(oracle_all) == (kind != "quarc")
    assert be._rtflag[:be._B].all() and not be._rtflag[be._B:].any()
    table = be._rtab
    assert table.flags.c_contiguous
    assert be._st.rstride == table.shape[1] == net.n
    for b in range(be._B):
        assert _decoded(be, b).tolist() == oracle[b], (kind, b)


@pytest.mark.parametrize("kind,n,rows", [
    ("quarc", 64, 12), ("quarc", 384, 12), ("spidergon", 64, 8),
    ("torus", 48, 9), ("torus", 256, 9), ("mesh", 64, None)])
def test_state_is_sized_by_the_router(kind, n, rows):
    """One route-table row per buffer position where the network is
    vertex-symmetric (per buffer on the mesh); a source queue's ring
    slice is a window of at most ``_SRC_WINDOW`` words; the queue table
    is a first row per node plus one relative row."""
    net, _ = build_network(kind, n)
    be = ArrayBackend(net)
    assert be._rtab.shape == (rows or be._B, n)
    slices = be._rmask + 1
    source = be._upof == -1         # rows no port's down names
    assert slices[:be._B][source].max() <= array_backend._SRC_WINDOW == 16
    assert be._rflat.size <= (16 * source.sum()
                              + slices[:be._B][~source].sum() + 2)
    assert be._qtab.shape == (2, n)
    if rows and n >= 256:           # no array holds N x N entries
        assert max(a.size for a in vars(be).values()
                   if isinstance(a, np.ndarray)) < n * n


def test_relative_tables_that_differ_at_another_node_raise(monkeypatch):
    """The build reads node 0's router and checks the last node's
    against it: the mesh routes by (dx, dy), not by (dst - node) mod N,
    so declaring its tables relative fails before anything attaches."""
    monkeypatch.setattr(MeshRouter, "relative_tables", True)
    net, _ = build_network("mesh", 16)
    with pytest.raises(ValueError, match=r"MeshRouter declares relative "
                       r"route tables, but node 15's are not node 0's"):
        ArrayBackend(net)
    assert net.state_owner is None
    # the queue table is read and checked the same way
    monkeypatch.setattr(
        QuarcTransceiver, "unicast_queue_table",
        lambda ad: (["loc_r"], np.full(ad.net.n, ad.node % 2)))
    with pytest.raises(ValueError, match=r"unicast queue table at node 15"):
        ArrayBackend(build_network("quarc", 16)[0])


@pytest.mark.parametrize("kind", KINDS)
def test_build_makes_no_route_head_call(kind, monkeypatch):
    calls = []
    for cls in _route_head_owners():
        def counting(self, buf, pkt, _orig=cls.route_head):
            calls.append(type(self).__name__)
            return _orig(self, buf, pkt)
        monkeypatch.setattr(cls, "route_head", counting)
    net, _ = build_network(kind, 64)
    ArrayBackend(net)
    assert calls == []
    # the wrapper does count: the oracle goes through it
    net.routers[0]._probe_route_table(net.routers[0].in_bufs[0])
    assert len(calls) == 64


def test_port_count_past_delivery_field_raises_before_tables(monkeypatch):
    monkeypatch.setattr(array_backend, "MAX_PORTS", 128)
    ArrayBackend(build_network("quarc", 16)[0])   # 128 output ports: fits
    monkeypatch.setattr(array_backend, "MAX_PORTS", 127)
    monkeypatch.setattr(
        Router, "unicast_route_table",
        lambda self, buf: pytest.fail("table built before the check"))
    net, _ = build_network("quarc", 16)
    with pytest.raises(ValueError, match=r"output ports.*128.*127"):
        ArrayBackend(net)
    assert net.state_owner is None


def _spec(**kw):
    base = dict(kind="quarc", n=16, msg_len=16, beta=0.0, rate=0.01,
                cycles=200, warmup=50, seed=1)
    base.update(kw)
    return WorkloadSpec(**base)


def test_msg_len_past_flit_index_field_rejected_for_array(monkeypatch):
    monkeypatch.setattr(array_backend, "MAX_PACKET_FLITS", 8)
    with pytest.raises(ValueError, match=r"msg_len.*16.*8"):
        SimulationSession(RunConfig(spec=_spec(), backend="array"))
    # the field is the array engine's: the reference backend takes the spec
    SimulationSession(RunConfig(spec=_spec(), backend="reference"))
    SimulationSession(RunConfig(spec=_spec(msg_len=8), backend="array"))


def test_class_sizes_past_flit_index_field_rejected(monkeypatch):
    wl = _spec(workload="cache_coherence:window=4")
    session = SimulationSession(RunConfig(spec=wl, backend="array"))
    assert session._packet_sizes() == {
        "class 'fill' msg_len": 10, "class 'inv' msg_len": 2,
        "class 'fill' req_len": 2}
    monkeypatch.setattr(array_backend, "MAX_PACKET_FLITS", 9)
    with pytest.raises(ValueError, match=r"class 'fill' msg_len.*10.*9"):
        SimulationSession(RunConfig(spec=wl, backend="array"))


def test_real_limits_are_the_packed_field_widths():
    assert array_backend.MAX_PORTS == 1 << 16
    assert array_backend.MAX_PACKET_FLITS == array_backend.TAIL == 1 << 19
    assert array_backend.FIDMASK == array_backend.MAX_PACKET_FLITS - 1
