"""Smoke tests for the figure drivers on miniature grids.

The benchmarks run the real (CI-sized) grids; these tests shrink the
parameter space further so plain ``pytest tests/`` exercises the driver
plumbing -- row schemas, config labels, the model overlay -- in seconds.
"""

import pytest

import repro.experiments.figures as figures


@pytest.fixture
def tiny_grid(monkeypatch):
    """3 rate points, very short runs."""
    monkeypatch.setattr(figures, "_grid", lambda fast: (3, 1500, 400))


class TestFig9Driver:
    def test_rows_schema_and_configs(self, tiny_grid):
        rows = figures.run_fig9(msg_lens=(4,))
        assert rows
        configs = {r["config"] for r in rows}
        assert configs == {"M=4"}
        nocs = {r["noc"] for r in rows}
        assert nocs == {"quarc", "spidergon"}
        for r in rows:
            assert {"rate", "unicast_lat", "bcast_lat",
                    "saturated"} <= set(r)


class TestFig10Driver:
    def test_model_overlay_present(self, tiny_grid):
        rows = figures.run_fig10(sizes=(16,))
        nocs = {r["noc"] for r in rows}
        assert "quarc-model" in nocs
        assert "spidergon-model" in nocs
        sim = [r for r in rows if r["noc"] == "quarc"]
        model = [r for r in rows if r["noc"] == "quarc-model"]
        assert {r["rate"] for r in model} >= {r["rate"] for r in sim}


class TestFig11Driver:
    def test_beta_configs(self, tiny_grid):
        rows = figures.run_fig11(betas=(0.0, 0.1), n=8)
        assert {r["config"] for r in rows} == {"beta=0", "beta=0.1"}


class TestAppScenarioDriver:
    def test_per_class_rows(self, tiny_grid):
        rows = figures.run_app_scenarios()
        assert rows
        assert {r["noc"] for r in rows} == {"quarc", "spidergon"}
        workloads = {r["workload"] for r in rows}
        assert any(w.startswith("cache_coherence") for w in workloads)
        assert "allreduce" in workloads
        for r in rows:
            assert {"class", "cast", "generated", "delivered",
                    "latency", "workload"} <= set(r)
        # both casts represented, and every class delivered traffic
        assert {r["cast"] for r in rows} == {"unicast", "broadcast"}
        assert all(r["delivered"] > 0 for r in rows)


class TestModeSwitch:
    def test_fast_picks_the_grid(self):
        assert figures._grid(True) == (5, 8_000, 2_000)
        assert figures._grid(False) == (8, 20_000, 5_000)

    def test_rates_positive_increasing(self):
        rates = figures.default_rates(16, 16, 0.05, 5)
        assert len(rates) == 5
        assert all(r > 0 for r in rates)
        assert rates == sorted(rates)
