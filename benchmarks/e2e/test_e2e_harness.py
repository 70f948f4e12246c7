"""Self-test of the end-to-end benchmark harness.

Run as ``pytest benchmarks/e2e`` (tier-1 collects ``tests/`` only).
Everything but the last three tests is arithmetic on synthetic input;
those three launch the real harness on the shortest workload.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as harness                                      # noqa: E402
from spans import Tracer, layer_totals, self_times         # noqa: E402
from workloads import BY_NAME, WORKLOADS                   # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
SHORT = BY_NAME["short_quarc64"]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    tr = Tracer("synthetic", origin=100.0)
    a = tr.add("a", 100.0, 110.0)
    tr.add("b", 101.0, 104.0, parent=a)
    c = tr.add("c", 105.0, 109.0, parent=a)
    tr.add("d", 106.0, 107.0, parent=c)
    own = self_times(tr.spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    assert tr.spans[0]["start"] == 0.0 and tr.spans[0]["end"] == 10.0
    assert all(s["workload"] == "synthetic" for s in tr.spans)
    # self times of a tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_totals_do_not_count_recursion_twice():
    tr = Tracer("synthetic", origin=0.0)
    outer = tr.add("resolve", 0.0, 5.0)
    tr.add("resolve", 1.0, 2.0, parent=outer)
    tr.add("resolve", 6.0, 7.0)
    tot = layer_totals(tr.spans)["resolve"]
    assert tot["calls"] == 3
    assert tot["total"] == pytest.approx(6.0)
    assert tot["self"] == pytest.approx(6.0)


def test_live_spans_nest_and_counters_count():
    tr = Tracer("live", origin=0.0)
    with tr.span("outer") as outer:
        with tr.span("inner"):
            pass
        tr.wrap(lambda: None, "wrapped")()
    inner, wrapped = tr.spans[1], tr.spans[2]
    assert inner["parent"] == outer and wrapped["parent"] == outer
    assert tr.spans[0]["start"] <= inner["start"] <= inner["end"] \
        <= wrapped["start"] <= wrapped["end"] <= tr.spans[0]["end"]
    items = tr.wrap_iter(lambda: (c for c in "xyz"), "gen")()
    assert list(items) == ["x", "y", "z"]
    assert layer_totals(tr.spans)["gen"]["calls"] == 4   # 3 items + stop
    fn = tr.count(lambda x: x + 1, "seam", timed=True)
    assert [fn(1), fn(2)] == [2, 3]
    assert tr.counts["seam_calls"] == 2 and tr.counts["seam_s"] >= 0.0


# ----------------------------------------------------------------------
# output checks and failure accounting
# ----------------------------------------------------------------------
def test_digest_ignores_key_order():
    a = {"noc": "quarc", "extra": {"x": 1, "y": [1.5, None]}, "n": 64}
    b = {"n": 64, "extra": {"y": [1.5, None], "x": 1}, "noc": "quarc"}
    assert harness.canonical_digest(a) == harness.canonical_digest(b)
    b["extra"]["y"][0] = 1.25
    assert harness.canonical_digest(a) != harness.canonical_digest(b)


def _table(saturated: int, accepted: str = "0.00251") -> str:
    return ("  noc   N   M  beta    rate  unicast_lat  bcast_lat  accepted"
            "  unicast_n  bcast_n  saturated\n"
            "-----  --  --  ----  ------  -----------  ---------  --------"
            "  ---------  -------  ---------\n"
            f"quarc  64  16     0  0.0138        289.1          0  "
            f"{accepted}        638        0          {saturated}\n")


def _cli_result(stdout: str, rc: int = 0) -> dict:
    return {"rc": rc, "timed_out": False, "stdout": stdout, "stderr": ""}


def test_parse_table_skips_leading_text():
    rows = harness.parse_table("[quarc] N=16\n  point 1\n\n" + _table(1)
                               + "\nper-class breakdown:\n")
    assert len(rows) == 1 and rows[0]["saturated"] == "1"
    assert harness.parse_table("no table here\n") == []


def test_failed_children_are_counted():
    t = harness.Tally(SHORT, seed=1, expected={})
    good = _cli_result(_table(1))
    assert t.record("cli", harness.check_cli(SHORT, good), "d1",
                    {"cpu_s": 1.0})
    # non-zero exit, really spawned
    res = harness.spawn([sys.executable, "-c", "import sys; sys.exit(3)"],
                        timeout=30)
    assert res["rc"] == 3
    assert not t.record("cli", harness.check_cli(SHORT, res), "d1",
                        {"cpu_s": 9.0})
    # wrong rows: not saturated, nothing delivered, no table at all
    for bad in (_table(0), _table(1, accepted="0"), "garbage\n"):
        assert not t.record(
            "cli", harness.check_cli(SHORT, _cli_result(bad)), "d1")
    # a passing child whose output differs from the first repeat's
    assert not t.record("cli", [], "d2", {"cpu_s": 9.0})
    assert (t.attempted, t.failed) == (6, 5)
    assert t.samples["cpu_s"] == [1.0]        # failures leave no sample
    out = harness.workload_result(t, trace=False)
    assert out["failed_share"] == pytest.approx(5 / 6)
    assert any("exit code 3" in p for p in out["problems"])


def test_pinned_digest_applies_to_its_seed_only():
    expected = {"seed": 1, "workloads": {
        SHORT.name: {"summary_sha256": "pinned"}}}
    assert not harness.Tally(SHORT, 1, expected).record(
        "summary", [], "other")
    assert harness.Tally(SHORT, 1, expected).record(
        "summary", [], "pinned")
    assert harness.Tally(SHORT, 2, expected).record(
        "summary", [], "other")


def test_timeout_kills_the_child_and_counts_as_failed():
    res = harness.spawn([sys.executable, "-c",
                         "import time; time.sleep(60)"], timeout=0.5)
    assert res["timed_out"] and res["wall_s"] < 10
    assert harness.check_cli(SHORT, res) == ["timeout"]


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _report(scale=lambda meta: 1.0, jitter=0.01) -> dict:
    """A one-workload report whose samples sit ``jitter`` around
    ``10 * scale(metric)``."""
    def timings(specs):
        return {name: dict(harness.summarise(
            [10.0 * scale(meta) * (1 + jitter * k)
             for k in (-2, -1, 0, 1, 2)]), unit=meta["unit"])
            for name, meta in specs.items()}
    layers = harness.metric_specs("per_layer")
    return {"workloads": {SHORT.name: {
        "end_to_end": timings(harness.metric_specs("end_to_end")),
        "wall": timings({name: layers[name] for name in harness.WALL}),
        "digests": {"cli": "c", "summary": "s"},
        "failed": 0, "attempted": 10}}}


def _worse_by(fraction):
    def scale(meta):
        return (1 + fraction if meta["better"] == "lower"
                else 1 - fraction)
    return scale


def _verdicts(a, b):
    """Verdict per gated metric and for ``outputs``; the wall-clock
    twins are never judged."""
    rows = harness.compare(a, b)
    assert {r["verdict"] for r in rows if r["metric"] in harness.WALL} \
        == {"info"}
    return {r["metric"]: r["verdict"] for r in rows
            if r["metric"] not in harness.WALL}


def test_compare_passes_identical_inputs():
    assert set(_verdicts(_report(), _report()).values()) == {"ok"}


def test_compare_flags_a_slowdown_beyond_the_bound():
    base = _report()
    bound = max(m["bound"] for m in SPEC["end_to_end"])
    slow = _verdicts(base, _report(_worse_by(bound + 0.06)))
    assert all(v == "regressed" for m, v in slow.items()
               if m != "outputs")
    tight = min(m["bound"] for m in SPEC["end_to_end"])
    within = _verdicts(base, _report(_worse_by(tight / 2)))
    assert set(within.values()) == {"ok"}
    faster = _verdicts(base, _report(_worse_by(-0.15)))
    assert set(faster.values()) == {"ok"}


def test_compare_reports_wide_spread_as_unresolved():
    noisy = _verdicts(_report(jitter=0.2), _report(jitter=0.2))
    assert all(v == "unresolved" for m, v in noisy.items()
               if m != "outputs")


def test_compare_flags_changed_outputs_and_failures():
    changed = _report()
    changed["workloads"][SHORT.name]["digests"]["summary"] = "other"
    assert _verdicts(_report(), changed)["outputs"] == "regressed"
    failing = _report()
    failing["workloads"][SHORT.name]["failed"] = 1
    assert _verdicts(_report(), failing)["outputs"] == "regressed"


# ----------------------------------------------------------------------
# BENCHMARK.json against the harness
# ----------------------------------------------------------------------
def test_benchmark_json_names_and_workloads():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert all(name.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    # the gated workloads are a subset of the harness's, same reasons
    assert {w["name"] for w in SPEC["workloads"]} < set(BY_NAME)
    assert all(w["why"] == BY_NAME[w["name"]].why
               for w in SPEC["workloads"])
    assert len(WORKLOADS) == 7
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert SPEC["paths"] == ["benchmarks/e2e"]


def _harness(*args, cwd=harness.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_every_benchmark_json_metric_is_emitted(trace, key):
    got = _harness("--workload", SHORT.name, "--repeats", "1",
                   "--trace", trace)
    assert got.returncode == 0, got.stdout[-2000:] + got.stderr[-2000:]
    line = json.loads(got.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())
    if key == "end_to_end":
        assert all(m["value"] > 0 for m in line["metrics"].values())
        # the printed report names every metric with its unit
        for metric, unit in units.items():
            assert re.search(rf"{re.escape(metric)}\s+{re.escape(unit)}",
                             got.stdout)


def test_aborts_when_the_c_kernel_is_unavailable(monkeypatch, capsys):
    real = harness.child_env

    def no_kernel(*args):
        return dict(real(*args), REPRO_ARRAY_CKERNEL="0")
    monkeypatch.setattr(harness, "child_env", no_kernel)
    assert harness.main(["--workload", SHORT.name, "--repeats", "1"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    bare = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns(
        "__pycache__"))
    got = _harness("--workload", SHORT.name, "--seed", "1", "--seconds",
                   "1", "--trace", "0", cwd=tmp_path,
                   script=bare / "run.py")
    assert got.returncode != 0
    assert "{" not in got.stdout
