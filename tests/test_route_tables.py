"""Array-engine route tables: built arithmetically, equal to the probe.

The routers answer ``route_table`` / ``unicast_route_table`` with numpy
columns computed from ``(role, dst - node)`` or ``(role, dx, dy)``;
``Router._probe_route_table`` (``route_head`` once per destination) and
the row-packing loop in ``helpers.probed_route_tables`` are the scalar
oracles they must equal entry for entry.
"""

from __future__ import annotations

import subprocess
import sys

import pytest
from helpers import probed_route_tables

from repro.core.api import build_network
from repro.core.quarc_router import LOC_R
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
    for router in net.routers:
        for buf in router.in_bufs:
            probe = router._probe_route_table(buf)
            uni = router.unicast_route_table(buf)
            assert uni is not None
            slot, deliver, vreset = uni
            assert len(slot) == len(deliver) == len(vreset) == n
            rows = [(router.out_ports[s], d, v) for s, d, v in
                    zip(slot.tolist(), deliver.tolist(), vreset.tolist())]
            assert rows == probe, (kind, n, router.node, buf.role)
            every = router.route_table(buf)
            if kind == "quarc" and buf.role < LOC_R:
                # ingress cloning reads the traffic class: unicast only
                assert every is None
            else:
                assert [c.tolist() for c in every] == \
                    [c.tolist() for c in uni]


def test_vclass_reset_column_is_exercised():
    """The mesh / torus dimension turn must show up in the oracle the
    columns are compared against, or the comparison proves nothing."""
    for kind in ("mesh", "torus"):
        net, _ = build_network(kind, 16)
        router = net.routers[5]
        turns = [v for _, _, v in router._probe_route_table(router.local_q)]
        assert any(turns) and not all(turns)


@pytest.mark.parametrize("kind", KINDS)
def test_packed_tables_equal_probed_oracle(kind):
    net, _ = build_network(kind, 64)
    be = ArrayBackend(net)
    oracle, oracle_all = probed_route_tables(be)
    # rtflag: 2 = the row holds for every class, 1 = unicast only
    assert [f == 2 for f in be._rtflag[:be._B].tolist()] == oracle_all
    assert be._rtflag[:be._B].all() and not be._rtflag[be._B:].any()
    table, mv = be._rtab, be._rtmv
    assert table.flags.c_contiguous and be._st.rstride == table.shape[1]
    assert mv.format == "l" and mv.itemsize == 8
    for b in range(be._B):
        assert type(mv[b, 0]) is int    # what the scalar tier reads
        assert table[b].tolist() == oracle[b], (kind, b)


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


def test_array_session_does_not_import_networkx():
    code = (
        "import sys\n"
        "import repro.cli\n"
        "from repro.sim.session import RunConfig, SimulationSession\n"
        "from repro.traffic.workload import WorkloadSpec\n"
        "spec = WorkloadSpec(kind='quarc', n=16, msg_len=4, beta=0.0,\n"
        "                    rate=0.01, cycles=100, warmup=10, seed=1)\n"
        "SimulationSession(RunConfig(spec=spec, backend='array'))\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
