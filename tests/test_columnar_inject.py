"""A unicast is a row until someone looks at it.

``Network.send_unicast`` hands an array engine ``(node, dst, size, cls,
cycle)`` rows, and the single-class mix a window of ``(cycle, node,
dst)`` columns; ``ArrayBackend._stage`` turns both into packet columns
and looks the source queue up in the adapters' ``unicast_queue_table``;
a ``Packet`` is built by ``ArrayBackend._packet`` only for an aid
something reads as an object.  Pinned here: the row path equals the
object path (summary, state, inject taps), the table equals
``send()``, the lazily built objects equal the reference's, flits are
conserved, and ``--profile`` counts what was ever an object.
"""

from __future__ import annotations

import pytest
from differential import make_config
from hypothesis import example, given, settings, strategies as st

from repro.core.api import build_network
from repro.faults import FaultPlan, FaultState
from repro.noc.network import Network
from repro.noc.packet import UNICAST, Packet
from repro.obs import ObsSpec
from repro.sim.array_backend import ArrayBackend
from repro.sim.session import SimulationSession, _merge_probes
from repro.workloads import Trace

KINDS = (("quarc", {}), ("quarc", {"bcast_mode": "relay"}),
         ("spidergon", {}), ("mesh", {}), ("torus", {}))
TOPOLOGIES = ("quarc", "spidergon", "mesh", "torus")
COHERENCE = dict(workload="cache_coherence:storms=true", rate=1.0)


def _as_packet(self, node, dst, size, cls, now, tag=None):
    """``Network.send_unicast`` as it was before rows: always an object."""
    pkt = Packet(node, dst, size, UNICAST, created=now)
    pkt.cls = cls
    pkt.tag = tag
    self.adapters[node].send(pkt, now)


def _drive(config, digest_every=0, snap_at=(), on_tail=False):
    """Run ``config``; returns the session and what was observed: the
    summary, a state digest every ``digest_every`` cycles, the
    ``on_inject`` taps, ``state_snapshot()`` at ``snap_at`` and, with
    ``on_tail``, every tail handed to ``net.on_tail``."""
    session = SimulationSession(config)
    net, be = session.net, session.backend
    seen = dict(digests=[], taps=[], snaps=[], tails=[])
    session.mix.on_inject = lambda *tap: seen["taps"].append(tap)
    if on_tail:
        net.on_tail = lambda node, pkt, now: seen["tails"].append(
            (node, now, pkt.src, pkt.dst, pkt.size, pkt.created, pkt.cls))
    cycles = config.spec.cycles
    probes = session._probe_schedule()
    if digest_every:
        _merge_probes(probes, {
            t: lambda now: seen["digests"].append(be.state_digest())
            for t in range(digest_every, cycles, digest_every)})
    _merge_probes(probes, {
        t: lambda now: seen["snaps"].append(net.state_snapshot())
        for t in snap_at})
    be.run_mix(session.mix, cycles, probes)
    seen["summary"] = session.summary()
    return session, seen


def _variants(kind, beta, cfg, tmp_path):
    """Single class, open-loop multi-class, and a v2 replay of the
    single-class run."""
    base = dict(kind=kind, n=16, msg_len=6, beta=beta, rate=0.08,
                cycles=500, warmup=100, seed=5, **cfg)
    yield make_config(**base)
    yield make_config(**{**base, **COHERENCE})
    _, seen = _drive(make_config(**base))
    events = [(now, node, dst, size, cls, bcast)
              for node, now, cls, dst, size, bcast in seen["taps"]]
    path = Trace(n=16, events=events).save(str(tmp_path / "run.jsonl"))
    yield make_config(**{**base, "arrival": f"trace:path={path}"})


@pytest.mark.parametrize("beta", (0.0, 0.1))
@pytest.mark.parametrize("kind,cfg", KINDS)
def test_rows_equal_packets(kind, cfg, beta, tmp_path, monkeypatch):
    for config in _variants(kind, beta, cfg, tmp_path):
        session, rows = _drive(config, digest_every=97)
        assert session.backend._nrows == session.mix.generated_unicasts > 0
        with monkeypatch.context() as m:
            m.setattr(Network, "send_unicast", _as_packet)
            session, pkts = _drive(config, digest_every=97)
        assert session.backend._nrows == 0
        assert rows == pkts, config.spec


@pytest.mark.parametrize("n", (16, 64))
@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_queue_table_is_send(kind, n):
    """``unicast_queue_table()`` names the buffer ``send()`` pushes
    into, for every (node, dst); -1 exactly where ``send()`` raises."""
    net, _ = build_network(kind, n)
    pushed = []
    for buf in net.iter_buffers():
        buf.sink = pushed           # the seam an array engine stages by
    for node, ad in enumerate(net.adapters):
        queues, slot = ad.unicast_queue_table()
        assert len(slot) == n
        for dst in range(n):
            try:
                ad.send(Packet(node, dst, 1), 0)
            except ValueError:
                assert slot[dst] == -1, (node, dst)
            else:
                assert pushed.pop()[0] is queues[slot[dst]], (node, dst)


def test_bad_rows_raise_like_send():
    net, _ = build_network("quarc", 16)
    be = ArrayBackend(net)
    for dst, msg in ((3, "no quadrant"), (16, "destination 16 out of range"),
                     (-1, "destination -1 out of range")):
        net.send_unicast(3, dst, 4, None, 0)
        with pytest.raises(ValueError, match=msg):
            net.step()
        be._staged.clear()
    net.send_unicast(3, 4, 4, None, 0)
    assert net.total_flits() == 4   # a staged row counts its flits
    assert net.drain() > 0 and be._nbuilt == 0


def test_lazy_packets_are_the_reference_packets():
    """What ``on_tail`` and ``materialize()`` hand out for a row-born
    message is what the reference run holds as an object."""
    config = make_config(kind="quarc", n=16, msg_len=6, cycles=600,
                         warmup=100, seed=5, **COHERENCE)
    session, arr = _drive(config, on_tail=True, snap_at=(150, 333))
    _, ref = _drive(config.with_backend("reference"), on_tail=True,
                    snap_at=(150, 333))
    assert arr == ref
    unicasts = [t for t in arr["tails"] if t[6] == "fill"]
    assert unicasts and session.backend._nrows > len(unicasts)
    assert session.backend._nbuilt >= len(unicasts)


@pytest.mark.parametrize("kind", ("quarc", "torus"))
def test_fault_after_rows_conserves_flits(kind):
    """A fault state installed mid-run meets rows already in flight:
    ``materialize`` builds their packets, the purge and the doomed set
    see them, and flits are conserved from the install on."""
    def run(backend):
        config = make_config(kind=kind, n=16, msg_len=6, beta=0.0,
                             rate=0.2, cycles=600, seed=7)
        session = SimulationSession(config.with_backend(backend))
        net, be, mix = session.net, session.backend, session.mix
        be.run_mix(mix, 300)
        fs = FaultState(FaultPlan.parse("links:down=2@cycle=300"), net, 7)
        fs.install(net)
        fs.injected_flits = net.total_flits()   # what the fault finds
        be.apply_faults(fs, fs.events_by_cycle()[300])
        be.run_mix(mix, 300)
        assert fs.dropped_msgs > 0
        assert fs.injected_flits == (fs.ejected_flits + fs.purged_flits
                                     + net.total_flits())
        return be, fs.extra_block(), session.summary()

    be, *arr = run("array")
    assert be._ncols > 0 and be._nbuilt > 0
    assert tuple(arr) == run("reference")[1:]


@settings(derandomize=True, deadline=None, max_examples=12)
@example(kind=("spidergon", {}), msg_len=4, beta=0.4, rate=0.05, seed=3,
         cycles=400, workload="")   # relay segments re-staged late
@example(kind=("quarc", {}), msg_len=4, beta=0.0, rate=0.05, seed=3,
         cycles=400, workload="cache_coherence:window=4")
@given(kind=st.sampled_from(KINDS), msg_len=st.integers(1, 9),
       beta=st.sampled_from((0.0, 0.1, 0.4)),
       rate=st.floats(0.005, 0.3), seed=st.integers(0, 2**16),
       cycles=st.integers(50, 400),
       workload=st.sampled_from(("", "", "cache_coherence:window=4",
                                 "allreduce:window=2")))
def test_engine_conserves_flits(kind, msg_len, beta, rate, seed, cycles,
                                workload):
    """Fault-free: every flit ever interned -- row or packet, stamped by
    a window or staged late (relay segments, a closed loop's issues) --
    has left through an ejection port or is still counted in flight."""
    load = dict(workload=workload, rate=1.0) if workload else dict(rate=rate)
    session = SimulationSession(make_config(
        kind=kind[0], n=16, msg_len=msg_len, beta=beta, cycles=cycles,
        warmup=0, seed=seed, **load, **kind[1]))
    session.run()
    be = session.backend
    if workload:
        assert be._nlate == len(be._pkts) > 0   # horizon 1: all of them
    elif session.collector.relay_segments > 20:
        assert be._nlate > 0
    interned = int(be._psize[:len(be._pkts)].sum())
    ejected = sum(int(be._fs[p]) for p, port in enumerate(be._ports)
                  if port.is_ejection)
    assert interned == ejected + session.net.total_flits()


@settings(derandomize=True, deadline=None, max_examples=10)
@example(kind=("quarc", {}), msg_len=16, beta=0.0, rate=0.05, seed=1,
         cycles=400)        # saturated: deep source queues
@given(kind=st.sampled_from(KINDS), msg_len=st.integers(1, 9),
       beta=st.sampled_from((0.0, 0.1, 0.4)),
       rate=st.floats(0.005, 0.3), seed=st.integers(0, 2**16),
       cycles=st.integers(50, 400))
def test_both_engines_conserve_flits(kind, msg_len, beta, rate, seed,
                                     cycles):
    """Fault-free, on either engine: every flit generated -- unicast
    columns, broadcast packets, relay segments -- has left through an
    ejection port, is in flight or is still staged; and both engines
    generated the same messages, counted alike by every collector."""
    from repro.noc.buffers import FlitBuffer
    seen = []
    for backend in ("reference", "array"):
        session = SimulationSession(make_config(
            kind=kind[0], n=16, msg_len=msg_len, beta=beta, rate=rate,
            cycles=cycles, warmup=0, seed=seed, backend=backend, **kind[1]))
        pushed = [0]
        push = FlitBuffer.push_packet

        def counted(buf, pkt, pushed=pushed, push=push):
            pushed[0] += pkt.size
            push(buf, pkt)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(FlitBuffer, "push_packet", counted)
            session.run()
        net, be, mix = session.net, session.backend, session.mix
        if backend == "array":
            assert be._ncols == mix.generated_unicasts
            generated = int(be._psize[:len(be._pkts)].sum()) + sum(
                e[2] if len(e) == 6 else e[1].size for e in be._staged)
            ejected = sum(int(be._fs[p]) for p, port in enumerate(be._ports)
                          if port.is_ejection)
        else:
            generated = pushed[0]
            ejected = sum(port.flits_sent for port in net.iter_ports()
                          if port.is_ejection)
        assert generated == ejected + net.total_flits()
        colls = {id(ad.collector): ad.collector for ad in net.adapters}
        seen.append((generated, mix.generated_unicasts,
                     mix.generated_broadcasts,
                     [(c.generated_unicast, c.generated_collective)
                      for c in colls.values()]))
        be.detach()
    assert seen[0] == seen[1]


@pytest.mark.parametrize("beta", (0.0, 0.1))
def test_profile_counts_objects(beta):
    config = make_config(kind="quarc", n=16, msg_len=6, beta=beta,
                         rate=0.05, cycles=600, warmup=100,
                         obs=ObsSpec(profile=True))
    session = SimulationSession(config)
    session.run()
    mix = session.mix
    kc = session.profiler.report()["kernel_counters"]
    assert kc["packets_columns"] == mix.generated_unicasts > 0
    assert kc["packets_built"] == 4 * mix.generated_broadcasts
    assert kc["packets_staged"] == (kc["packets_columns"]
                                    + kc["packets_built"])
    assert (f"packets: {kc['packets_staged']} staged, 0 as rows, "
            f"{kc['packets_columns']} as columns, {kc['packets_built']} "
            f"built, 0 late\n" in session.profiler.render())
