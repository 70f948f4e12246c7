"""End-to-end benchmark of the Quarc NoC reproduction: host time of the
commands a user types, split into set-up and run, plus a traced
per-layer pass.  See README.md in this directory.

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--repeats K]
                                 [--seconds T] [--trace [0|1]]
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --repin

One parent process launches one child at a time, tracing off: the *CLI
child* (``python -m repro <argv>``) gives CPU seconds, peak RSS and
wall; the *staged child* (``child.py``) gives the set-up / run split.
With ``--trace`` a traced staged child per workload gives the per-layer
metrics.  The gated (end-to-end) timings are CPU seconds: on the shared
box this was written on, wall clock includes whatever time the
hypervisor gave to someone else, so wall is reported beside them as
``wall.*`` and not gated.  Simulated statistics are deterministic and
are checked, not timed.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from spans import layer_totals
from workloads import BY_NAME, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / "results" / "e2e"          # git-ignored
#: children's TMPDIR; the compiled-kernel cache lives under it, so it
#: persists between harness runs and stays inside the checkout
CACHE = OUT / "cache"
T0 = "@T0"      # argv placeholder: replaced by perf_counter() at spawn
#: wall-clock twins of the gated CPU metrics; listed under ``per_layer``
#: in BENCHMARK.json (no bound), sampled by the untraced children
WALL = ("wall.cli_s", "wall.setup_s", "wall.run_s",
        "wall.sim_kcycles_per_s")


@functools.lru_cache(maxsize=None)
def metric_specs(kind: str) -> Dict[str, dict]:
    """BENCHMARK.json's ``end_to_end`` or ``per_layer`` list by metric
    name: the one place names, units, directions and bounds live."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def child_env(tmpdir: Path = CACHE) -> Dict[str, str]:
    """Scrubbed environment: nothing inherited but PATH, HOME and CC --
    in particular no REPRO_* toggle."""
    env = {k: os.environ[k] for k in ("PATH", "HOME", "CC")
           if k in os.environ}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmpdir)
    return env


def spawn(argv: List[str], timeout: float,
          env: Optional[Dict[str, str]] = None) -> dict:
    """Run one child to completion in its own temp cwd and return exit
    status, wall, CPU and peak RSS of the child and the descendants it
    waited for (``wait4``), stdout and stderr."""
    env = child_env() if env is None else env
    OUT.mkdir(parents=True, exist_ok=True)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="child-", dir=OUT)
    try:
        with open(os.path.join(cwd, ".out"), "wb") as out, \
                open(os.path.join(cwd, ".err"), "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [repr(t0) if a == T0 else a for a in argv], cwd=cwd,
                env=env, stdin=subprocess.DEVNULL, stdout=out,
                stderr=err, start_new_session=True)
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            # reaped above: tell Popen so it does not wait again
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "rc": proc.returncode, "timed_out": timed_out.is_set(),
            "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "stdout": Path(cwd, ".out").read_text(errors="replace"),
            "stderr": Path(cwd, ".err").read_text(errors="replace"),
        }
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def run_cli(w: Workload, seed: int) -> dict:
    return spawn([sys.executable, "-m", "repro"] + w.cli_argv(seed),
                 w.timeout_s)


def run_staged(w: Workload, seed: int, trace: bool = False,
               argv: Optional[List[str]] = None) -> dict:
    """Staged child; ``res["payload"]`` is its JSON line, or ``None``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--t0", T0]
    if trace:
        cmd += ["--trace", w.name]
    res = spawn(cmd + ["--"] + (argv or w.cli_argv(seed)),
                w.timeout_s * (3 if trace else 1))
    res["payload"] = _last_json(res["stdout"])
    return res


def run_probe(env: Optional[Dict[str, str]] = None) -> dict:
    res = spawn([sys.executable, str(HERE / "child.py"), "--probe"],
                300.0, env)
    res["payload"] = _last_json(res["stdout"])
    return res


def _last_json(text: str) -> Optional[dict]:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def canonical_digest(obj) -> str:
    """sha256 of the key-order-independent JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def parse_table(stdout: str) -> List[Dict[str, str]]:
    """Rows of the first fixed-width table ``format_table`` printed
    (header, dashes, then rows up to a blank or shorter line)."""
    lines = stdout.splitlines()
    rule = next((i for i, line in enumerate(lines)
                 if i and line.strip() and set(line) <= set("- ")), None)
    if rule is None:
        return []
    cols = lines[rule - 1].split()
    rows = []
    for line in lines[rule + 1:]:
        cells = line.split()
        if len(cells) != len(cols):
            break
        rows.append(dict(zip(cols, cells)))
    return rows


def check_rows(w: Workload, rows: List[dict]) -> List[str]:
    """Result rows (``RunSummary.row()`` keys, printed or not): the
    right number, something delivered, the expected saturated flag."""
    if not rows or (w.command == "run" and len(rows) != 1):
        return [f"expected result rows, got {len(rows)}"]
    problems = []
    for row in rows:
        if float(row["accepted"]) <= 0:
            problems.append("nothing delivered")
        if (w.saturated is not None
                and bool(int(row["saturated"])) != w.saturated):
            problems.append(f"saturated={row['saturated']}, expected "
                            f"{int(w.saturated)}")
    return problems


def check_cli(w: Workload, res: dict) -> List[str]:
    """Why this CLI child counts as failed (empty: it passed)."""
    if res["timed_out"]:
        return ["timeout"]
    if res["rc"] != 0:
        return [f"exit code {res['rc']}: {res['stderr'][-300:]}"]
    return check_rows(w, parse_table(res["stdout"]))


def check_staged(w: Workload, res: dict) -> List[str]:
    if res["timed_out"]:
        return ["timeout"]
    if res["rc"] != 0 or res["payload"] is None:
        return [f"exit code {res['rc']}: {res['stderr'][-300:]}"]
    if not res["payload"]["kernel_loaded"]:
        return ["C cycle kernel not loaded"]
    return check_rows(w, res["payload"]["rows"])


def load_expected() -> dict:
    path = HERE / "expected.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Tally:
    """Per-workload bookkeeping: samples, failures, output digests."""

    def __init__(self, w: Workload, seed: int, expected: dict):
        self.w = w
        self.seed = seed
        self.pinned = expected.get("workloads", {}).get(w.name, {})
        self.pinned_seed = expected.get("seed")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.digests: Dict[str, str] = {}
        self.traced: List[dict] = []
        self.extra: Dict[str, float] = {}

    def record(self, kind: str, problems: List[str],
               digest: Optional[str] = None,
               samples: Optional[Dict[str, float]] = None) -> bool:
        """Count one child; its samples are kept only if it passed."""
        self.attempted += 1
        problems = list(problems)
        if not problems and digest is not None:
            first = self.digests.setdefault(kind, digest)
            if digest != first:
                problems.append(f"{kind} digest differs between repeats")
            pin = self.pinned.get(kind + "_sha256")
            if (self.seed == self.pinned_seed and pin is not None
                    and digest != pin):
                problems.append(f"{kind} digest {digest[:12]} is not "
                                f"the pinned {pin[:12]}")
        if problems:
            self.failed += 1
            self.problems += [f"{kind} child: {p}" for p in problems]
            return False
        for name, value in (samples or {}).items():
            self.samples.setdefault(name, []).append(value)
        return True


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure_cli(t: Tally) -> None:
    res = run_cli(t.w, t.seed)
    digest = hashlib.sha256(res["stdout"].encode()).hexdigest()
    t.record("cli", check_cli(t.w, res), digest,
             {"cpu_s": res["cpu_s"], "peak_rss_mb": res["peak_rss_mb"],
              "wall.cli_s": res["wall_s"]})


def sim_cycles(w: Workload, payload: dict) -> int:
    """Simulated cycles of one staged run (all cells of a figure)."""
    return w.cycles * len(payload["rows"])


def staged_samples(w: Workload, res: dict) -> Dict[str, float]:
    t, cpu = res["payload"]["t"], res["payload"]["cpu"]
    kcycles = sim_cycles(w, res["payload"]) / 1000.0
    run_cpu = cpu["run1"] - cpu["run0"]
    run_wall = t["run1"] - t["run0"]
    return {"setup_s": cpu["setup"], "run_cpu_s": run_cpu,
            "sim_kcycles_per_cpu_s": kcycles / run_cpu,
            "wall.setup_s": t["setup"], "wall.run_s": run_wall,
            "wall.sim_kcycles_per_s": kcycles / run_wall,
            "staged_cpu_s": res["cpu_s"]}


def record_staged(t: Tally, res: dict, timed: bool) -> bool:
    """Count one staged child: its summary digest and, if ``timed``,
    its samples."""
    problems = check_staged(t.w, res)
    if problems:
        return t.record("summary", problems)
    return t.record("summary", [],
                    canonical_digest(res["payload"]["summary"]),
                    staged_samples(t.w, res) if timed else None)


def measure_staged(t: Tally) -> None:
    record_staged(t, run_staged(t.w, t.seed), timed=True)


def measure_traced(t: Tally) -> None:
    res = run_staged(t.w, t.seed, trace=True)
    if record_staged(t, res, timed=False):
        t.traced.append(res["payload"])
        (OUT / f"trace-{t.w.name}.json").write_text(json.dumps(
            {k: res["payload"].get(k) for k in
             ("argv", "t", "spans", "counts", "profile", "cells")}))


def measure_serial_twin(t: Tally) -> None:
    """The sharded workload's base: same spec, ``--shard-workers 1``."""
    argv = t.w.cli_argv(t.seed)
    argv[argv.index("--shard-workers") + 1] = "1"
    res = run_staged(t.w, t.seed, argv=argv)
    problems = check_staged(t.w, res)
    if t.record("serial twin", problems):
        s = staged_samples(t.w, res)
        t.extra["shard.serial_run_s"] = s["wall.run_s"]
        t.extra["shard.serial_cpu_s"] = s["staged_cpu_s"]


def measure_cold_compile() -> Optional[float]:
    """Seconds ``load_cycle_kernel()`` takes with an empty cache."""
    fresh = tempfile.mkdtemp(prefix="cold-", dir=OUT)
    try:
        res = run_probe(child_env(Path(fresh)))
    finally:
        shutil.rmtree(fresh, ignore_errors=True)
    if res["rc"] != 0 or not res["payload"]["kernel_loaded"]:
        return None
    return res["payload"]["load_s"]


def _passes(do_pass, count: Optional[int], deadline: float) -> None:
    """Call ``do_pass`` ``count`` times or, with ``count`` None, until
    ``deadline``: once at least, then again while half a pass fits."""
    began = perf_counter()
    done = 0
    while True:
        do_pass()
        done += 1
        now = perf_counter()
        if (done >= count if count is not None
                else now + 0.5 * (now - began) / done >= deadline):
            return


def measure(workloads: List[Workload], seed: int,
            repeats: Optional[int], seconds: Optional[float],
            trace: bool, expected: dict) -> Dict[str, Tally]:
    """Passes of (CLI child, staged child and, with ``trace``, traced
    child), interleaved round-robin across workloads so drift hits all
    alike: ``repeats`` passes, or as many as fit in ``seconds``.  The
    once-per-run children of the traced pass (cold kernel compile,
    serial twin of a sharded workload) come first, inside ``seconds``.
    """
    tallies = {w.name: Tally(w, seed, expected) for w in workloads}
    deadline = perf_counter() + (seconds or 0.0)
    if repeats is not None:
        # discarded warm-up: .pyc of lazily imported modules, page
        # cache.  Under --seconds the probe child has to do: a warm-up
        # of the slowest workload would take a tenth of the run.
        for w in workloads:
            run_staged(w, seed)
    if trace:
        cold = measure_cold_compile()
        for t in tallies.values():
            if "--shard-workers" in t.w.argv:
                measure_serial_twin(t)
            t.extra["ckernel.cold_compile_s"] = cold or 0.0
            if cold is None:
                t.problems.append("cold kernel compile failed")

    def one_pass():
        for t in tallies.values():
            measure_cli(t)
            measure_staged(t)
            if trace:
                measure_traced(t)

    _passes(one_pass, repeats, deadline)
    return tallies


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def summarise(values: List[float]) -> dict:
    """Median, quartiles and sample count of one timing."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0,
                "samples": []}
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def layers_from_trace(t: Tally) -> Dict[str, float]:
    """Every per-layer metric of one workload, from its traced children
    (median over them) and the untraced medians; 0 where a layer does
    not run on this workload.  Spans are wall clock; the ratios against
    untraced runs (``cli.overhead_s``, ``obs.trace_overhead_x``,
    ``noc.ns_per_flit_moved``, ``shard.cpu_x``) use CPU seconds."""
    per_child = [_layers_of_child(t.w, p) for p in t.traced]
    out = {k: statistics.median(c[k] for c in per_child)
           for k in per_child[0]}
    med = {k: statistics.median(v) for k, v in t.samples.items()}
    run_cpu = med.get("run_cpu_s", 0.0)
    out.update({name: med.get(name, 0.0) for name in WALL})
    out["cli.overhead_s"] = (med.get("cpu_s", 0.0)
                             - med.get("staged_cpu_s", 0.0))
    out["noc.ns_per_flit_moved"] = (
        1e9 * run_cpu / out["noc.flits_moved"]
        if out["noc.flits_moved"] else 0.0)
    out["obs.trace_overhead_x"] = (out.pop("_traced_run_cpu_s") / run_cpu
                                   if run_cpu else 0.0)
    serial_run = t.extra.get("shard.serial_run_s", 0.0)
    serial_cpu = t.extra.get("shard.serial_cpu_s", 0.0)
    out["shard.serial_run_s"] = serial_run
    out["shard.slowdown_x"] = (out["shard.run_s"] / serial_run
                               if serial_run else 0.0)
    out["shard.cpu_x"] = (med.get("staged_cpu_s", 0.0) / serial_cpu
                          if serial_cpu else 0.0)
    out["ckernel.cold_compile_s"] = t.extra.get(
        "ckernel.cold_compile_s", 0.0)
    names = metric_specs("per_layer")
    if set(out) != set(names):
        raise RuntimeError(
            f"per-layer metrics out of step with BENCHMARK.json: "
            f"{sorted(set(out) ^ set(names))}")
    return {name: out[name] for name in names}


def _layers_of_child(w: Workload, p: dict) -> Dict[str, float]:
    tot = layer_totals(p["spans"])

    def total(name):
        return tot.get(name, {}).get("total", 0.0)

    def self_(name):
        return tot.get(name, {}).get("self", 0.0)

    t = p["t"]
    counts = p["counts"]
    prof = p.get("profile") or {}
    cat = prof.get("categories", {})
    kc = prof.get("kernel_counters", {})
    cells = p["cells"]
    ncell = len(cells)
    setup_s = t["setup"]
    run_s = t["run1"] - t["run0"]
    top = sum(s["end"] - s["start"] for s in p["spans"]
              if s["parent"] is None)
    sweep = w.command == "sweep"
    step_calls = counts.get("array.step_calls", 0)
    out = {
        "import.python_s": total("import.python"),
        "import.numpy_s": self_("import.numpy"),
        "import.networkx_s": self_("import.networkx"),
        "import.repro_s": self_("import.repro"),
        "workloads.resolve_s": total("workloads.resolve"),
        "core.build_network_s": total("core.build_network"),
        "core.route_head_calls": counts.get("core.route_head_calls", 0),
        "array.build_s": total("array.build"),
        "array.build_share": total("array.build") / setup_s,
        "ckernel.load_s": total("ckernel.load"),
        "traffic.mix_build_s": total("traffic.mix_build"),
        "traffic.inject_s": cat.get("inject", 0.0),
        "traffic.generated_msgs": sum(c["generated_msgs"]
                                      for c in cells),
        "session.build_self_s": self_("session.build"),
        "session.summary_s": total("session.summary"),
        "session.unaccounted_share": 1.0 - top / t["end"],
        "array.step_s": cat.get("step", 0.0),
        "array.kernel_s": cat.get("kernel", 0.0),
        "array.fold_s": cat.get("fold", 0.0),
        "array.replay_s": prof.get("replay_s", 0.0),
        "array.step_calls": step_calls,
        "array.stepped_cycle_ratio":
            step_calls / (w.cycles * max(ncell, 1)),
        "ckernel.calls": kc.get("calls", 0),
        "ckernel.buffers_scanned": kc.get("buffers_scanned", 0),
        "ckernel.candidates": kc.get("candidates", 0),
        "ckernel.flits_moved": kc.get("flits_moved", 0),
        "ckernel.useful_ratio":
            (kc["flits_moved"] / kc["buffers_scanned"]
             if kc.get("buffers_scanned") else 0.0),
        "ckernel.ns_per_call": (1e9 * cat.get("kernel", 0.0)
                                / kc["calls"] if kc.get("calls") else 0.0),
        "workloads.closedloop.on_tail_calls":
            counts.get("workloads.closedloop.on_tail_calls", 0),
        "workloads.closedloop.on_tail_s":
            counts.get("workloads.closedloop.on_tail_s", 0.0),
        "workloads.closedloop.completed": 0 if sweep else sum(
            c.get("completed", 0) for c in
            p["summary"]["extra"].get("classes", {}).values()),
        "experiments.sweep.cells": ncell if sweep else 0,
        "experiments.sweep.build_s_total":
            total("session.build") if sweep else 0.0,
        "experiments.sweep.run_s_total":
            total("session.run") if sweep else 0.0,
        "experiments.sweep.other_s":
            (total("experiments.sweep") - total("session.build")
             - total("session.run")) if sweep else 0.0,
        "replication.execute_s": total("replication.execute"),
        "shard.run_s": total("shard.run"),
        "shard.cut_row_share": p.get("cut_row_share", 0.0),
        "shard.profiled_share":
            ((cat.get("step", 0.0) + cat.get("inject", 0.0)) / run_s
             if total("shard.run") else 0.0),
        "noc.flits_moved": sum(c["flits_moved"] for c in cells),
        "noc.delivered_msgs": sum(c["delivered_msgs"] for c in cells),
        "noc.unicast_latency_cycles":
            sum(c["unicast_mean"] for c in cells) / max(ncell, 1),
        "noc.accepted_rate": sum(c["accepted_rate"] for c in cells)
        / max(ncell, 1),
        "noc.saturated": sum(bool(c["saturated"]) for c in cells),
        "_traced_run_cpu_s": p["cpu"]["run1"] - p["cpu"]["run0"],
    }
    return out


def workload_result(t: Tally, trace: bool) -> dict:
    """The JSON-ready record of one workload."""
    def timings(specs):
        return {name: dict(summarise(t.samples.get(name, [])),
                           unit=meta["unit"])
                for name, meta in specs.items()}
    metrics = timings(metric_specs("end_to_end"))
    layer_specs = metric_specs("per_layer")
    problems = list(t.problems)
    problems += [f"no sample of {n}" for n, m in metrics.items()
                 if m["n"] == 0]
    out = {
        "why": t.w.why, "loop": t.w.loop,
        "command": "python -m repro " + " ".join(t.w.cli_argv(t.seed)),
        "attempted": t.attempted, "failed": t.failed,
        "failed_share": t.failed / max(t.attempted, 1),
        "problems": problems, "digests": t.digests,
        "end_to_end": metrics,
        "wall": timings({name: layer_specs[name] for name in WALL}),
    }
    if trace and t.traced:
        out["per_layer"] = layers_from_trace(t)
    elif trace:
        out["problems"].append("no traced child passed")
    return out


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def header(seed: int, repeats, seconds) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = got.stdout.strip() or sha
    libs = sorted((CACHE / "repro-ckernel").glob("cycle-*.so"))
    cc = os.environ.get("CC", "cc")
    try:
        ccv = subprocess.run([cc, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    except FileNotFoundError:
        ccv = []
    return {
        "git_sha": sha, "seed": seed, "repeats": repeats,
        "seconds": seconds, "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": sys.version.split()[0],
        "kernel_so_sha256": (hashlib.sha256(
            libs[0].read_bytes()).hexdigest() if libs else None),
        "compiler": ccv[0] if ccv else cc,
        "stamp": time.strftime("%Y%m%dT%H%M%S"),
    }


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.4g}"
    return str(int(v))


def print_report(report: dict) -> None:
    h = report["header"]
    print(f"e2e benchmark  git {h['git_sha'][:12]}  seed {h['seed']}  "
          f"repeats {h['repeats']}  seconds {h['seconds']}  "
          f"nproc {h['nproc']}  load {_fmt(h['loadavg_start'][0])}")
    print(f"python {h['python']}  compiler {h['compiler']}  kernel.so "
          f"{(h['kernel_so_sha256'] or 'none')[:12]}  "
          f"harness {h['harness_s']:.1f} s")
    for name, w in report["workloads"].items():
        print(f"\n{name}  [{w['loop']}]  failed {w['failed']}/"
              f"{w['attempted']}")
        print(f"  $ {w['command']}")
        print(f"  {'metric':<24}{'unit':>10}{'median':>11}{'q1':>11}"
              f"{'q3':>11}{'n':>4}")
        for metric, m in {**w["end_to_end"], **w["wall"]}.items():
            print(f"  {metric:<24}{m['unit']:>10}{_fmt(m['median']):>11}"
                  f"{_fmt(m['q1']):>11}{_fmt(m['q3']):>11}{m['n']:>4}")
        print(f"  {'failed_share':<24}{'fraction':>10}"
              f"{_fmt(float(w['failed_share'])):>11}")
        units = metric_specs("per_layer")
        for metric, value in w.get("per_layer", {}).items():
            if metric not in WALL:
                print(f"  {metric:<38}{units[metric]['unit']:>16}"
                      f"{_fmt(value):>12}")
        for p in w["problems"]:
            print(f"  PROBLEM: {p}")


def contract_line(report: dict, trace: bool) -> dict:
    """The last line of output.  One workload: the metrics named in
    BENCHMARK.json; several: the same, prefixed ``<workload>.``."""
    ws = report["workloads"]
    metrics = {}
    for wname, w in ws.items():
        prefix = f"{wname}." if len(ws) > 1 else ""
        if trace:
            for name, meta in metric_specs("per_layer").items():
                metrics[prefix + name] = {
                    "value": w.get("per_layer", {}).get(name),
                    "unit": meta["unit"]}
        else:
            for name, m in w["end_to_end"].items():
                metrics[prefix + name] = {"value": m["median"],
                                          "unit": m["unit"]}
    return {"correct": report["correct"],
            "attempted": sum(w["attempted"] for w in ws.values()),
            "failed": sum(w["failed"] for w in ws.values()),
            "metrics": metrics}


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(a: dict, b: dict) -> List[dict]:
    """One row per (workload, timing) present in both reports, ``b``
    against the base ``a``: the end-to-end metrics, judged against
    their bounds, then the ungated wall-clock twins (verdict ``info``).
    """
    bounds = {name: meta["bound"]
              for name, meta in metric_specs("end_to_end").items()}
    better = {name: meta["better"] for kind in ("end_to_end", "per_layer")
              for name, meta in metric_specs(kind).items()}
    rows = []
    for wname, wa in a["workloads"].items():
        wb = b["workloads"].get(wname)
        if wb is None:
            continue
        timings_a = {**wa["end_to_end"], **wa["wall"]}
        timings_b = {**wb["end_to_end"], **wb["wall"]}
        for metric, ma in timings_a.items():
            mb = timings_b[metric]
            bound = bounds.get(metric)
            worse = spread = None
            if ma["n"] and mb["n"]:
                sign = 1.0 if better[metric] == "lower" else -1.0
                worse = sign * (mb["median"] - ma["median"]) / ma["median"]
                spread = max((m["q3"] - m["q1"]) / m["median"]
                             for m in (ma, mb))
                sa = [sign * v for v in ma["samples"]]
                sb = [sign * v for v in mb["samples"]]
            if bound is None:
                verdict = "info"
            elif worse is None:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif spread > bound and not max(sb) < min(sa):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": wname, "metric": metric,
                         "a": ma, "b": mb, "worse": worse,
                         "spread": spread, "bound": bound,
                         "verdict": verdict})
        same = (wa["digests"] == wb["digests"] and all(
            wa.get("per_layer", {}).get(k) == v
            for k, v in wb.get("per_layer", {}).items()
            if k.startswith("noc.") and k != "noc.ns_per_flit_moved"))
        clean = wa["failed"] == 0 and wb["failed"] == 0
        rows.append({"workload": wname, "metric": "outputs",
                     "verdict": "ok" if same and clean else "regressed",
                     "detail": ("digests and noc.* identical, no failures"
                                if same and clean else
                                "digests or noc.* differ" if clean else
                                "failed children")})
    return rows


def print_compare(rows: List[dict]) -> None:
    print(f"{'workload':<26}{'metric':<24}{'median A':>10}{'iqr A':>9}"
          f"{'median B':>10}{'iqr B':>9}{'worse':>8}{'bound':>7}  verdict")
    for r in rows:
        if r["metric"] == "outputs":
            print(f"{r['workload']:<26}{'outputs':<24}{r['detail']:>62}"
                  f"  {r['verdict']}")
            continue
        a, b = r["a"], r["b"]
        iqr = [_fmt(m["q3"] - m["q1"]) if m["n"] else "-" for m in (a, b)]
        worse = "-" if r["worse"] is None else f"{100 * r['worse']:+.1f}%"
        bound = "-" if r["bound"] is None else f"{100 * r['bound']:.0f}%"
        print(f"{r['workload']:<26}{r['metric']:<24}"
              f"{_fmt(a['median']):>10}{iqr[0]:>9}{_fmt(b['median']):>10}"
              f"{iqr[1]:>9}{worse:>8}{bound:>7}  {r['verdict']}")


# ----------------------------------------------------------------------
# --repin
# ----------------------------------------------------------------------
def repin(seed: int = 1) -> int:
    """Regenerate expected.json from one CLI and one staged child per
    workload; the headline workload must agree with the reference
    backend before anything is pinned."""
    pins = {}
    for w in WORKLOADS:
        t = Tally(w, seed, {})
        measure_cli(t)
        measure_staged(t)
        if t.failed:
            print(f"{w.name}: not pinned: {t.problems}")
            return 1
        if w.name == "short_quarc64":
            argv = w.cli_argv(seed)
            argv[argv.index("--backend") + 1] = "reference"
            ref = run_staged(w, seed, argv=argv)
            if (ref["payload"] is None or canonical_digest(
                    ref["payload"]["summary"]) != t.digests["summary"]):
                print(f"{w.name}: reference backend disagrees with the "
                      f"array backend; nothing pinned")
                return 1
        pins[w.name] = {"summary_sha256": t.digests["summary"],
                        "cli_sha256": t.digests["cli"]}
        print(f"{w.name}: pinned {t.digests['summary'][:12]}")
    (HERE / "expected.json").write_text(json.dumps(
        {"seed": seed, "workloads": pins}, indent=2) + "\n")
    return 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(BY_NAME), default=None,
                    help="one workload (default: all seven, interleaved)")
    ap.add_argument("--seed", type=int, default=1,
                    help="added to each workload's base seed")
    ap.add_argument("--repeats", type=int, default=None,
                    help="children of each kind per workload (default 5 "
                         "unless --seconds is given)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure for this long instead of a fixed count")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="add the traced per-layer pass")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--repin", action="store_true",
                    help="regenerate expected.json (seed 1)")
    args = ap.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        rows = compare(a, b)
        print_compare(rows)
        return int(any(r["verdict"] == "regressed" for r in rows))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              f"runs the simulator from the checkout it sits in",
              file=sys.stderr)
        return 2
    if args.repin:
        return repin()

    started = perf_counter()
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = 5
    trace = bool(args.trace)
    workloads = [BY_NAME[args.workload]] if args.workload else list(
        WORKLOADS)
    # the gate must never time the numpy path: kernel first
    probe = run_probe()
    if probe["rc"] != 0 or probe["payload"] is None:
        print(f"error: probe child failed:\n{probe['stderr'][-2000:]}",
              file=sys.stderr)
        return 2
    if not probe["payload"]["kernel_loaded"]:
        print("error: the C cycle kernel did not load; every run counts "
              "as failed", file=sys.stderr)
        n = len(workloads)
        print(json.dumps({"correct": False, "attempted": n, "failed": n,
                          "metrics": {}}))
        return 1
    report = {"header": header(args.seed, repeats, args.seconds),
              "workloads": {}}
    tallies = measure(workloads, args.seed, repeats, args.seconds, trace,
                      load_expected())
    for name, t in tallies.items():
        report["workloads"][name] = workload_result(t, trace)
    report["correct"] = not any(w["failed"] or w["problems"]
                                for w in report["workloads"].values())
    report["header"]["harness_s"] = perf_counter() - started
    path = OUT / f"{report['header']['stamp']}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=1))
    print_report(report)
    print(f"\n[json] {path.relative_to(ROOT)}")
    print(json.dumps(contract_line(report, trace)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
