"""Tests for latency accounting, workload specs and run summaries."""

import pytest

from repro.core.collector import LatencyCollector
from repro.noc.packet import BROADCAST, UNICAST, CollectiveOp, Packet
from repro.sim.records import RunSummary
from repro.traffic.workload import WorkloadSpec


class TestLatencyCollector:
    def test_warmup_filtering(self):
        coll = LatencyCollector(warmup=100)
        early = Packet(0, 1, 4, UNICAST, created=50)
        late = Packet(0, 1, 4, UNICAST, created=150)
        coll.on_unicast(early, 60)
        coll.on_unicast(late, 170)
        assert coll.delivered_unicast == 2     # both counted...
        assert coll.unicast.overall.n == 1     # ...one measured
        assert coll.unicast_mean == 20

    def test_collective_completion_warmup(self):
        coll = LatencyCollector(warmup=100)
        op_early = CollectiveOp(0, 10, expected=1, kind=BROADCAST)
        op_late = CollectiveOp(0, 200, expected=1, kind=BROADCAST)
        for op, t in ((op_early, 30), (op_late, 230)):
            coll.on_collective_tail(op, 1, t)
        assert coll.completed_collective == 2
        assert coll.collective.overall.n == 1
        assert coll.collective_mean == 30

    def test_generation_counters(self):
        coll = LatencyCollector()
        coll.note_generated(collective=False)
        coll.note_generated(collective=False)
        coll.note_generated(collective=True)
        assert coll.generated_unicast == 2
        assert coll.generated_collective == 1

    def test_cis_none_until_enough_batches(self):
        coll = LatencyCollector()
        assert coll.unicast_ci() is None
        assert coll.collective_ci() is None
        assert coll.unicast_mean == 0.0


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="quarc", n=16, msg_len=16, beta=0.0,
                         rate=0.01, cycles=100, warmup=100)
        with pytest.raises(ValueError):
            WorkloadSpec(kind="quarc", n=16, msg_len=16, beta=2.0,
                         rate=0.01)
        with pytest.raises(ValueError):
            WorkloadSpec(kind="quarc", n=16, msg_len=16, beta=0.0,
                         rate=-1.0)

    def test_with_rate_and_kind_are_copies(self):
        spec = WorkloadSpec(kind="quarc", n=16, msg_len=16, beta=0.0,
                            rate=0.01)
        r2 = spec.with_rate(0.02)
        k2 = spec.with_kind("spidergon")
        assert spec.rate == 0.01 and r2.rate == 0.02
        assert k2.kind == "spidergon" and k2.rate == 0.01

    def test_sweep_rates(self):
        spec = WorkloadSpec(kind="quarc", n=16, msg_len=16, beta=0.0,
                            rate=0.0)
        rates = [s.rate for s in spec.sweep_rates([0.01, 0.02])]
        assert rates == [0.01, 0.02]

    def test_label(self):
        spec = WorkloadSpec(kind="quarc", n=16, msg_len=8, beta=0.05,
                            rate=0.01)
        assert "quarc" in spec.label() and "M=8" in spec.label()

    def test_frozen(self):
        spec = WorkloadSpec(kind="quarc", n=16, msg_len=16, beta=0.0,
                            rate=0.01)
        with pytest.raises(AttributeError):
            spec.rate = 0.5


class TestRecords:
    def test_run_summary_row_fields(self):
        rs = RunSummary(noc="quarc", n=16, msg_len=16, bcast_frac=0.05,
                        offered_rate=0.01, cycles=1000, warmup=100, seed=1,
                        unicast_mean=20.5, bcast_mean=30.25)
        row = rs.row()
        assert row["noc"] == "quarc"
        assert row["unicast_lat"] == 20.5
        assert row["bcast_lat"] == 30.25
        assert row["saturated"] == 0
