"""A saturated source's backlog waits outside the packet table (the sim
README's Backlog): an arrival with its queue's stock of flits ahead of it
is staged as a record, folded as one, and interned only when the packets
ahead of it run out.  Every run here is saturated, so records are made,
and the array engine must still give the reference's ``RunSummary``,
probe series and metrics byte for byte."""

from __future__ import annotations

import numpy as np
import pytest
from differential import make_config

import repro.sim.array_backend as array_backend
from repro.obs import ObsSpec, ProbeSpec
from repro.obs.metrics import dumps_stream
from repro.sim import ckernel
from repro.sim.array_backend import STOPS
from repro.sim.backend import ConservationError
from repro.sim.session import SimulationSession

OBS = ObsSpec(probes=tuple(ProbeSpec(name, window=64) for name in (
    "occupancy", "links", "rates", "inflight", "stalls")),
    latency_hist=True)
RECORDS = STOPS.index("records")


def _both(config, engines_built, drain=False):
    """``config`` on the reference and on the array engine: each one's
    summary (with its metrics stream and, with ``drain``, the cycles a
    drain took after the run) and the array session."""
    out = []
    for backend in ("reference", "array"):
        session = SimulationSession(config.with_backend(backend))
        summary = session.run()
        row = [summary, dumps_stream(summary)]
        if drain:
            row.append(session.drain())
            row.append(session.collector.delivered_unicast)
        out.append(row)
    assert [t.__name__ for t in engines_built] == ["ReferenceBackend",
                                                   "ArrayBackend"]
    return out, session


@pytest.fixture(params=[None, 8], ids=["stock", "tiny-stock"])
def stock(request, monkeypatch):
    """The engine's interned stock: as shipped, and so small that
    queues run dry every few packets (refills in the middle of every
    batch, records folding into empty queues)."""
    if request.param:
        monkeypatch.setattr(array_backend, "_STOCK", request.param)
    return array_backend._STOCK


@pytest.mark.parametrize("kind", ["quarc", "spidergon", "mesh", "torus"])
@pytest.mark.parametrize("beta", [0.0, 0.1])
def test_saturated_runs_identical(kind, beta, stock, engines_built):
    config = make_config(kind=kind, n=16, msg_len=4, beta=beta, rate=0.3,
                         cycles=700, warmup=100, seed=5, obs=OBS)
    (ref, arr), session = _both(config, engines_built)
    assert arr == ref
    be = session.backend
    assert be._rslots.used > 0          # records were made
    if stock == 8 and beta == 0.0:
        # a queue refilled in the middle of a batch
        assert be._st.stops[RECORDS] > 0 and be._nrefill > 0


@pytest.mark.parametrize("workload,arrival", [
    ("classes:a=uniform,len=4,rate=0.3;b=uniform,len=6,rate=0.2",
     "bernoulli"),
    ("", "bursty:on=0.3,len=8"),
], ids=["two-classes", "bursty"])
def test_mixes_identical(workload, arrival, stock, engines_built):
    config = make_config(kind="quarc", n=16, msg_len=4, beta=0.0,
                         rate=0.5, cycles=900, warmup=100, seed=3,
                         workload=workload, arrival=arrival, obs=OBS)
    (ref, arr), session = _both(config, engines_built)
    assert arr == ref
    assert session.backend._rslots.used > 0


def test_drain_after_backlog(stock, engines_built):
    """``Network.drain`` steps the engine a cycle at a time until the
    backlog has left: every record is interned on its way out."""
    config = make_config(kind="quarc", n=8, msg_len=4, beta=0.1, rate=0.4,
                         cycles=600, warmup=50, seed=2, obs=OBS)
    (ref, arr), session = _both(config, engines_built, drain=True)
    assert arr == ref
    be = session.backend
    assert 0 < be._rslots.used == be._rslots.n      # all interned
    assert not be._rqn.any() and session.net.total_flits() == 0


def test_fault_after_backlog(stock, engines_built):
    """A fault event materialises the queues: the records in them are
    interned first.  (A session with a fault plan installs its fault
    state at cycle 0 and stages no rows, so the event is applied by hand
    to a run whose backlog has formed.)"""
    from repro.faults import FaultPlan, FaultState
    config = make_config(kind="quarc", n=16, msg_len=4, beta=0.1, rate=0.6,
                         cycles=900, warmup=100, seed=4)
    out = []
    for backend in ("reference", "array"):
        session = SimulationSession(config.with_backend(backend))
        be, net = session.backend, session.net
        for _ in range(3):      # windows: a first one makes few records
            be.run_mix(session.mix, 200)
        recorded = getattr(be, "_rqn", np.zeros(1)).sum()
        fs = FaultState(FaultPlan.parse("links:down=2@cycle=500"), net, 4)
        fs.install(net)
        be.apply_faults(fs, [ev for evs in fs.events_by_cycle().values()
                             for ev in evs])
        be.run_mix(session.mix, 400)
        out.append((session.summary(), fs.dropped_unicasts,
                    fs.purged_flits, net.total_flits()))
    assert [t.__name__ for t in engines_built] == ["ReferenceBackend",
                                                   "ArrayBackend"]
    assert out[1] == out[0]
    assert recorded > 0                 # records waited in the queues
    assert net.built[1] == "fault event"


def test_a_dropped_record_breaks_the_flit_identity(monkeypatch):
    """A record lost before it folds takes its flits with it: no mark sees
    it (it is not in flight yet), but the end-of-run identity injected
    == ejected + purged + in flight does."""
    monkeypatch.setattr(array_backend, "_STOCK", 8)
    session = SimulationSession(make_config(
        kind="quarc", n=16, msg_len=4, beta=0.0, rate=0.3, cycles=400,
        warmup=50, seed=1, backend="array"))
    be = session.backend
    stage, dropped = be._stage, []

    def dropping(now):
        stage(now)
        st = be._st
        if not dropped and st.an > st.apos and be._aaid[st.an - 1] < 0:
            st.an -= 1          # the last waiting row, a record, is lost
            dropped.append(now)

    be._stage = dropping
    with pytest.raises(ConservationError, match="in flight went from 0"):
        session.run()
    assert dropped


def test_every_run_balances_its_flits(engines_built):
    """Both engines count what entered and left: a saturated run ends
    with injected == ejected + in flight, the backlog's records in it."""
    config = make_config(kind="quarc", n=16, msg_len=4, beta=0.1, rate=0.4,
                         cycles=900, warmup=50, seed=9)
    for backend in ("reference", "array"):
        session = SimulationSession(config.with_backend(backend))
        session.run()
        net = session.net
        assert net.flits_injected == net.flits_ejected + net.fabric_flits()
        assert net.fabric_flits() > 1000
    assert session.backend._rslots.used > session.backend._rslots.n


@pytest.mark.parametrize("kind,beta,rate,warmup,calls", [
    ("quarc", 0.0, 0.003, 2000, 3),         # light load
    ("quarc", 0.1, 0.0034, 2000, 4),        # the Fig. 11 cells
    ("spidergon", 0.1, 0.002, 1500, None),  # (relay tails end batches)
], ids=["light-quarc", "fig11-quarc", "fig11-spidergon"])
def test_healthy_runs_make_no_records(kind, beta, rate, warmup, calls):
    """Below the knee a queue drains its window's arrivals as they come,
    so none waits as a record and no batch ends for a refill (the rule
    allows for what a queue sends until each arrival)."""
    session = SimulationSession(make_config(
        kind=kind, n=64, msg_len=16, beta=beta, rate=rate, cycles=40_000,
        warmup=warmup, seed=1, backend="array"))
    session.run()
    st = session.backend._st
    assert st.stops[RECORDS] == 0 and session.backend._rslots.used == 0
    if calls is not None:
        assert st.calls == calls


class TestStateBind:
    """``ckernel.State.bind`` points a kernel field at an array only if C
    reads the array's element type there."""

    def test_wrong_width_is_refused(self):
        st = ckernel.State()
        with pytest.raises(TypeError, match="pdst points at contiguous "
                                            "int32, not int64"):
            st.bind("pdst", np.zeros(4, np.int64))
        with pytest.raises(TypeError, match="rdry .* not uint8"):
            st.bind("rdry", np.zeros(4, np.uint8))

    def test_non_contiguous_is_refused(self):
        with pytest.raises(TypeError, match="non-contiguous int32"):
            ckernel.State().bind("abuf", np.zeros(8, np.int32)[::2])

    def test_every_field_is_bound_at_its_type(self):
        """An engine's arrays match the declared types field by field."""
        session = SimulationSession(make_config(backend="array"))
        be = session.backend
        for name, dtype in ckernel.State.POINTERS.items():
            arr = getattr(be, "_" + name)
            assert arr.dtype.name == dtype, name
            assert getattr(be._st, name) == arr.ctypes.data, name
