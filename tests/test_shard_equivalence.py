"""Sharded single-run engine: byte-identity with the serial array run.

The tentpole contract (:mod:`repro.sim.shard`): splitting one run
across ``shard_workers`` spatial domains changes *nothing* observable
-- the merged :class:`RunSummary` (every float included), probe
streams and latency histograms are byte-identical to the serial array
engine, for every topology, shard count, compute path (C kernel on or
off) and transport (in-process lockstep or forked shared memory).

Also covered: the scope validation (sharding only composes with the
plain array backend) and the shard-aware differential harness
(``find_shard_divergence`` localises a halo-protocol bug to one shard
and one halo cycle).
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.obs import ObsSpec, ProbeSpec
from repro.obs.metrics import dumps_stream
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.workload import WorkloadSpec

sys.path.insert(0, os.path.dirname(__file__))
from differential import find_shard_divergence, make_config  # noqa: E402

KINDS = ("quarc", "spidergon", "mesh", "torus")


def spec_for(kind: str, n: int = 16, rate: float = 0.02,
             **kw) -> WorkloadSpec:
    base = dict(kind=kind, n=n, msg_len=4, beta=0.05, rate=rate,
                cycles=600, warmup=150, seed=9)
    base.update(kw)
    return WorkloadSpec(**base)


def run_once(spec: WorkloadSpec, shard_workers: int = 1, obs=None,
             **cfg):
    session = SimulationSession(
        RunConfig(spec=spec, backend="array", obs=obs,
                  shard_workers=shard_workers, **cfg))
    summary = session.run()
    session.backend.detach()
    return session, summary


@pytest.fixture()
def inproc(monkeypatch):
    """Force the lockstep in-process drive (deterministic, coverable)."""
    monkeypatch.setenv("REPRO_SHARD_INPROC", "1")


# ----------------------------------------------------------------------
# byte-identity matrix
# ----------------------------------------------------------------------
class TestShardIdentity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shards", [2, 3])
    def test_all_kinds(self, inproc, kind, shards):
        spec = spec_for(kind)
        _, serial = run_once(spec)
        _, sharded = run_once(spec, shard_workers=shards)
        assert sharded == serial

    def test_quarc_quadrants_n64(self, inproc):
        spec = spec_for("quarc", n=64, rate=0.01, cycles=900)
        _, serial = run_once(spec)
        _, sharded = run_once(spec, shard_workers=4)
        assert sharded == serial

    def test_quarc_relay_mode(self, inproc):
        spec = spec_for("quarc", workload=(
            "classes:uni=uniform,rate=0.01,len=4;"
            "coll=broadcast,rate=0.004,len=2"))
        _, serial = run_once(spec, bcast_mode="relay")
        _, sharded = run_once(spec, shard_workers=2, bcast_mode="relay")
        assert sharded == serial

    def test_multiclass_with_broadcasts(self, inproc):
        spec = spec_for("spidergon", workload=(
            "classes:ctrl=uniform,rate=0.01,len=2;"
            "bulk=hotspot:node=1,p=0.3,rate=0.005,len=8;"
            "coll=broadcast,rate=0.002,len=4"))
        _, serial = run_once(spec)
        _, sharded = run_once(spec, shard_workers=3)
        assert sharded == serial

    def test_probe_streams_and_histograms(self, inproc):
        obs = ObsSpec(probes=(ProbeSpec("occupancy", window=32),
                              ProbeSpec("inflight", window=32),
                              ProbeSpec("rates", window=32)),
                      latency_hist=True)
        spec = spec_for("mesh")
        _, serial = run_once(spec, obs=obs)
        _, sharded = run_once(spec, shard_workers=2, obs=obs)
        assert sharded == serial
        assert dumps_stream(sharded) == dumps_stream(serial)
        assert (sharded.extra["latency_hist"]
                == serial.extra["latency_hist"])

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="fork transport needs os.fork")
    def test_fork_transport(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_INPROC", raising=False)
        spec = spec_for("quarc", n=64, rate=0.01)
        _, serial = run_once(spec)
        _, sharded = run_once(spec, shard_workers=2)
        assert sharded == serial


# ----------------------------------------------------------------------
# scope validation
# ----------------------------------------------------------------------
class TestShardScope:
    def test_requires_array_backend(self):
        spec = spec_for("quarc")
        with pytest.raises(ValueError, match="array backend"):
            SimulationSession(
                RunConfig(spec=spec, backend="reference", shard_workers=2))

    def test_rejects_faults(self):
        spec = spec_for("quarc",
                        faults="links:down=2@cycle=300")
        with pytest.raises(ValueError, match="fault injection"):
            SimulationSession(
                RunConfig(spec=spec, backend="array", shard_workers=2))

    def test_rejects_oversharding(self):
        spec = spec_for("quarc", n=16)
        with pytest.raises(ValueError, match="exceeds"):
            SimulationSession(
                RunConfig(spec=spec, backend="array", shard_workers=32))

    def test_rejects_progress(self):
        spec = spec_for("quarc")
        with pytest.raises(ValueError, match="progress"):
            SimulationSession(
                RunConfig(spec=spec, backend="array", shard_workers=2,
                          obs=ObsSpec(progress=True)))


# ----------------------------------------------------------------------
# shard-aware differential harness
# ----------------------------------------------------------------------
class TestShardDifferential:
    def test_clean_run_has_no_divergence(self):
        cfg = make_config(kind="quarc", n=32, rate=0.02, cycles=300,
                          warmup=60, seed=3)
        assert find_shard_divergence(cfg, 2) is None

    def test_report_names_shard_and_halo_cycle(self, monkeypatch):
        # sabotage the ghost-credit exchange: cut senders see
        # permanently full downstream rows, so boundary flits stall
        from repro.sim.shard.worker import ShardWorker

        orig = ShardWorker._ghost_credits

        def starved(self, t):
            orig(self, t)
            for _pv, row, _dest in self.cut_out:
                self.be._fullb[row] = True

        monkeypatch.setattr(ShardWorker, "_ghost_credits", starved)
        cfg = make_config(kind="quarc", n=32, rate=0.02, cycles=300,
                          warmup=60, seed=3)
        div = find_shard_divergence(cfg, 2)
        assert div is not None
        assert div.shard in (0, 1)
        assert div.halo_cycle == div.cycle + 1
        text = div.report()
        assert f"owned by shard {div.shard}" in text
        assert f"halo cycle {div.halo_cycle}" in text
