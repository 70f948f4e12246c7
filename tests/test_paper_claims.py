"""The paper's evaluation claims, asserted on the fast figure grids.

One module-scoped run per figure, made as ``repro fig9`` / ``fig10`` /
``fig11`` make it (about 5 s together), and one per ablation.  Fig. 11's
beta = 0.1 column is the same nine-cell Quarc / Spidergon sweep as
Fig. 10's N = 64 column (N 64, M 16, beta 0.1, same rates, grid and
seed), so it is taken from the Fig. 10 run, relabelled, not run twice.  Each test
quotes the paper sentence or the stated claim it checks.  These are
shapes, not the paper's absolute OMNeT++ numbers.  Table 1 and Fig. 12
are asserted in ``test_hw.py``.

``finite`` drops rows flagged ``saturated``, so Fig. 11's "sustainable
load" count reads through the session's saturation verdict.
"""

from pathlib import Path

import pytest

from repro.experiments.figures import _grid, run_fig9, run_fig10, run_fig11
from repro.experiments.latency import run_point
from repro.experiments.sweep import default_rates
from repro.traffic.workload import WorkloadSpec

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {"fig9": ("M=8", "M=16", "M=32"),
           "fig10": ("N=16", "N=32", "N=64"),
           "fig11": ("beta=0", "beta=0.05", "beta=0.1")}


def finite(rows, noc, metric, config):
    """One curve's measured values, lightest load first: rows flagged
    ``saturated`` and non-positive means are dropped."""
    return [float(r[metric]) for r in rows
            if r["noc"] == noc and r["config"] == config
            and isinstance(r.get(metric), (int, float)) and r[metric] > 0
            and not r.get("saturated")]


def curve(rows, noc, metric, config):
    vals = finite(rows, noc, metric, config)
    assert vals, (noc, metric, config)
    return vals


@pytest.fixture(scope="module")
def fig9():
    return run_fig9()


@pytest.fixture(scope="module")
def fig10():
    return run_fig10()


def _fig10_n64(fig10):
    """Fig. 10's simulated N = 64 rows, relabelled as Fig. 11's beta = 0.1
    column."""
    return [dict(r, config="beta=0.1") for r in fig10
            if r["config"] == "N=64" and r["noc"] in ("quarc", "spidergon")]


@pytest.fixture(scope="module")
def fig11(fig10):
    return run_fig11(betas=(0.0, 0.05)) + _fig10_n64(fig10)


def test_fig11_beta01_column_is_fig10_n64(fig10):
    """The reuse above holds only while both figures sweep the same
    cells: N 64, M 16, beta 0.1 at exactly Fig. 11's rates (a sweep
    stops after two saturated points, so each curve is a prefix)."""
    rows = _fig10_n64(fig10)
    rates = default_rates(64, 16, 0.1, _grid(True)[0])
    for noc in ("quarc", "spidergon"):
        mine = [r for r in rows if r["noc"] == noc]
        assert mine and [r["rate"] for r in mine] == rates[:len(mine)], noc
        assert {(r["N"], r["M"], r["beta"]) for r in mine} == {(64, 16, 0.1)}


# ----------------------------------------------------------------------
# Figs. 9-11: Quarc vs Spidergon latency
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fig", sorted(CONFIGS))
def test_quarc_unicast_below_spidergon(request, fig):
    """Quarc's "unicast latency is overall ... lower": pointwise over
    the common measured prefix, at every M (Fig. 9), N (Fig. 10) and
    beta (Fig. 11)."""
    rows = request.getfixturevalue(fig)
    for cfg in CONFIGS[fig]:
        q = curve(rows, "quarc", "unicast_lat", cfg)
        s = curve(rows, "spidergon", "unicast_lat", cfg)
        assert all(a < b for a, b in zip(q, s)), cfg


def test_fig9_broadcast_several_times_below(fig9):
    """Fig. 9: Quarc broadcast latency several times below Spidergon's
    at every common measured point."""
    for cfg in CONFIGS["fig9"]:
        q = curve(fig9, "quarc", "bcast_lat", cfg)
        s = curve(fig9, "spidergon", "bcast_lat", cfg)
        assert all(b > 3 * a for a, b in zip(q, s)), cfg


def test_fig9_latency_rises_with_load(fig9):
    """Fig. 9: both networks' latency rises with injection rate."""
    for cfg in CONFIGS["fig9"]:
        for noc in ("quarc", "spidergon"):
            lat = curve(fig9, noc, "unicast_lat", cfg)
            assert lat[-1] > lat[0], (noc, cfg)


def _bcast_gap(rows, cfg):
    """Spidergon over Quarc broadcast latency at the lightest load."""
    return (curve(rows, "spidergon", "bcast_lat", cfg)[0]
            / curve(rows, "quarc", "bcast_lat", cfg)[0])


def test_fig10_broadcast_gap_widens_with_n(fig10):
    """Fig. 10: the broadcast gap widens with N (Quarc scales as
    N/4 + M, Spidergon as (N/2) * M)."""
    assert _bcast_gap(fig10, "N=64") > _bcast_gap(fig10, "N=16")


def test_fig10_broadcast_gap_near_order_of_magnitude(fig10):
    """Fig. 10: the broadcast gap nears an order of magnitude by N = 64."""
    assert _bcast_gap(fig10, "N=64") > 8.0


def test_fig10_light_load_sim_matches_model(fig10):
    """Fig. 10 overlays the analytical model: at light load simulation
    and model agree within 35 %."""
    for cfg in CONFIGS["fig10"]:
        sim = curve(fig10, "quarc", "unicast_lat", cfg)[0]
        model = curve(fig10, "quarc-model", "unicast_lat", cfg)[0]
        assert abs(sim - model) / model < 0.35, cfg


def test_fig11_quarc_unicast_hardly_moved(fig11):
    """On the Quarc "the adverse impact [of broadcast traffic on unicast
    latency] is hardly appreciable": beta = 10 % moves its light-load
    unicast latency by less than 1.6x."""
    q0 = curve(fig11, "quarc", "unicast_lat", "beta=0")[0]
    q10 = curve(fig11, "quarc", "unicast_lat", "beta=0.1")[0]
    assert q10 < 1.6 * q0


def test_fig11_broadcast_inflates_spidergon_unicast(fig11):
    """Fig. 11: on the Spidergon, relay storms inflate light-load
    unicast latency visibly (over 1.25x at beta = 10 %) ..."""
    s0 = curve(fig11, "spidergon", "unicast_lat", "beta=0")[0]
    s10 = curve(fig11, "spidergon", "unicast_lat", "beta=0.1")[0]
    assert s10 > 1.25 * s0


def test_fig11_inflation_worse_on_spidergon(fig11):
    """... and strictly more than they inflate the Quarc's."""
    def inflation(noc):
        return (curve(fig11, noc, "unicast_lat", "beta=0.1")[0]
                / curve(fig11, noc, "unicast_lat", "beta=0")[0])
    assert inflation("spidergon") > inflation("quarc")


def test_fig11_quarc_sustains_at_least_as_much_load(fig11):
    """Broadcast traffic on the Spidergon "severely reduces the
    sustainable load in the network": at beta = 10 % the Quarc keeps at
    least as many unsaturated points."""
    q = finite(fig11, "quarc", "unicast_lat", "beta=0.1")
    s = finite(fig11, "spidergon", "unicast_lat", "beta=0.1")
    assert len(q) >= len(s)


# ----------------------------------------------------------------------
# Ablations (N = 16, M = 16, seed 5)
# ----------------------------------------------------------------------
def _spec(kind, beta, rate, **kw):
    return WorkloadSpec(kind=kind, n=16, msg_len=16, beta=beta, rate=rate,
                        cycles=8_000, warmup=2_000, seed=5, **kw)


@pytest.fixture(scope="module")
def allport():
    """Pure-unicast (beta = 0) mean latency by (kind, rate, depth)."""
    cells = [(kind, rate, 4) for rate in (0.005, 0.015, 0.025)
             for kind in ("quarc", "spidergon")]
    cells += [(kind, 0.015, depth) for depth in (2, 8)
              for kind in ("quarc", "spidergon")]
    return {(kind, rate, depth): run_point(_spec(
                kind, 0.0, rate, buffer_depth=depth)).unicast_mean
            for kind, rate, depth in cells}


def test_allport_wins_without_broadcast(allport):
    """With beta = 0 only the four injection queues and the doubled
    cross link act.  "The unicast latency is overall at least a factor
    of 2 lower" shrinks here, but the Quarc still wins at every load."""
    for rate in (0.005, 0.015, 0.025):
        assert allport["quarc", rate, 4] < allport["spidergon", rate, 4]


def test_allport_gap_widens_with_load(allport):
    """The pure-unicast gap widens as the Spidergon's single injection
    port congests."""
    def gap(rate):
        return allport["spidergon", rate, 4] - allport["quarc", rate, 4]
    assert gap(0.025) > gap(0.005)


def test_deeper_lanes_relieve_blocking(allport):
    """Deeper lanes relieve wormhole blocking at moderate load."""
    assert allport["quarc", 0.015, 8] <= allport["quarc", 0.015, 2]


@pytest.fixture(scope="module")
def truebcast():
    """The same Quarc with absorb-and-forward ("quarc") and with
    Spidergon-style relay chains no switch clones ("quarc-relay"),
    beside the real Spidergon."""
    spec = _spec("quarc", 0.05, 0.008)
    return {"quarc": run_point(spec),
            "quarc-relay": run_point(spec, bcast_mode="relay"),
            "spidergon": run_point(spec.with_kind("spidergon"))}


def test_absorb_and_forward_dominates_broadcast_win(truebcast):
    """Absorb-and-forward, the paper's key broadcast mechanism, is the
    dominant factor in the broadcast win: relay chains on the same
    Quarc take over 3x longer."""
    assert (truebcast["quarc"].bcast_mean * 3
            < truebcast["quarc-relay"].bcast_mean)


def test_relay_broadcast_no_worse_than_spidergon(truebcast):
    """All-port injection and the doubled spoke still help a relay
    broadcast against the Spidergon."""
    assert (truebcast["quarc-relay"].bcast_mean
            <= 1.2 * truebcast["spidergon"].bcast_mean)


def test_broadcast_mode_leaves_unicast_alone(truebcast):
    """Unicast latency does not depend on the broadcast mechanism."""
    q = truebcast["quarc"].unicast_mean
    assert abs(q - truebcast["quarc-relay"].unicast_mean) < 0.5 * q


# ----------------------------------------------------------------------
# Where claims live
# ----------------------------------------------------------------------
def test_every_bench_script_runs_in_ci():
    """A claim in a script that nothing runs gates nothing: each
    ``benchmarks/bench_*.py`` is named by a step of ``ci.yml``."""
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    steps = "\n".join(line for line in ci.read_text().splitlines()
                      if not line.lstrip().startswith("#"))
    scripts = (ROOT / "benchmarks").glob("bench_*.py")
    missing = sorted(p.name for p in scripts
                     if f"benchmarks/{p.name}" not in steps)
    assert missing == []
