"""Quarc vs Spidergon on the application-level multi-class workloads.

The paper's *motivation* (Sec. 2.2) made measurable: the registered
application scenarios (``cache_coherence`` invalidation storms, ring
``allreduce``) run on both architectures with identical seeds, and the
per-class breakdown separates the broadcast-class latency (invalidate /
barrier) from the unicast-class latency (line fill / chunk) -- the
comparison the paper's cache-sync argument rests on.

The benchmark also gates correctness: the report matrix is computed on
the ``reference`` oracle (named explicitly -- it is not the default
engine) and every other registered backend must stay
**summary-identical** to it on every (noc, workload) cell, per-class
fields included.

Entry points::

    pytest benchmarks/bench_app_scenarios.py    # smoke test
    python benchmarks/bench_app_scenarios.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from benchlib import backend_equivalence_failures, emit
from repro.experiments.figures import (APP_WORKLOADS,
                                       CLOSED_APP_WORKLOADS,
                                       app_scenario_rows)
from repro.experiments.sweep import sweep_scenarios
from repro.sim.records import RunSummary
from repro.traffic.workload import WorkloadSpec

KINDS = ("quarc", "spidergon")
N, SEED = 16, 1


def _base_spec(smoke: bool) -> WorkloadSpec:
    cycles, warmup = (3_000, 750) if smoke else (12_000, 3_000)
    return WorkloadSpec(kind="quarc", n=N, msg_len=8, beta=0.0, rate=1.0,
                        cycles=cycles, warmup=warmup, seed=SEED)


def run_matrix(smoke: bool = False, *, backend: str,
               workers: int = 1,
               workloads: Sequence[str] = APP_WORKLOADS
               ) -> List[RunSummary]:
    return sweep_scenarios(_base_spec(smoke), kinds=KINDS,
                           workloads=list(workloads),
                           backend=backend, workers=workers)


def check_equivalence(smoke: bool,
                      reference: Optional[List[RunSummary]] = None,
                      workers: int = 1,
                      workloads: Sequence[str] = APP_WORKLOADS
                      ) -> List[str]:
    """Reference vs every optimized backend on every cell (full
    ``RunSummary`` equality -- the per-class breakdown included);
    returns failure messages."""
    return backend_equivalence_failures(
        run_matrix, lambda s: f"{s.noc} {s.extra['workload']}",
        smoke=smoke, reference=reference, workers=workers,
        workloads=workloads)


def check_sanity(summaries: List[RunSummary]) -> List[str]:
    """Every cell delivers traffic in every class, and the Quarc's
    hardware broadcast beats the Spidergon's relay chain on the
    broadcast classes (the paper's core claim)."""
    failures = []
    bcast_lat: Dict[tuple, float] = {}
    for s in summaries:
        wl = s.extra["workload"]
        for name, info in s.per_class.items():
            label = f"{s.noc} {wl} class={name}"
            if info["delivered"] <= 0:
                failures.append(f"{label}: delivered no traffic")
            if info["cast"] == "broadcast" and info["samples"] > 0:
                bcast_lat[(wl, name, s.noc)] = info["latency_mean"]
    for (wl, name, noc), lat in bcast_lat.items():
        if noc != "quarc":
            continue
        spider = bcast_lat.get((wl, name, "spidergon"))
        if spider is not None and not spider > lat:
            failures.append(
                f"{wl} class={name}: spidergon broadcast latency "
                f"{spider:.1f} not above quarc {lat:.1f} -- the "
                f"paper's broadcast advantage is gone")
    return failures


def check_completions(summaries: List[RunSummary]) -> List[str]:
    """Closed-loop cells must report completion times: every closed
    class completed transactions, and a round trip costs more than its
    single-leg latency."""
    failures = []
    for s in summaries:
        wl = s.extra["workload"]
        blocks = s.extra.get("classes", {})
        seen = 0
        for name, info in blocks.items():
            if "completed" not in info:
                continue
            seen += 1
            label = f"{s.noc} {wl} class={name}"
            if info["completed"] <= 0:
                failures.append(f"{label}: no completed transactions")
            if info["completion_samples"] > 0 and \
                    not info["completion_mean"] >= info["latency_mean"]:
                failures.append(
                    f"{label}: completion mean "
                    f"{info['completion_mean']:.1f} below single-leg "
                    f"latency {info['latency_mean']:.1f}")
        if not seen:
            failures.append(f"{s.noc} {wl}: no class reported "
                            f"closed-loop completion keys")
    return failures


# ----------------------------------------------------------------------
# pytest entry point (benchmarks are not part of tier-1 collection)
# ----------------------------------------------------------------------
def test_app_scenarios_smoke():
    summaries = run_matrix(smoke=True, backend="reference")
    failures = (check_equivalence(smoke=True, reference=summaries)
                + check_sanity(summaries))
    assert not failures, failures


def test_closed_app_scenarios_smoke():
    """The closed-loop variants through the same gate: every backend
    byte-identical on every (noc, workload) cell, completion keys
    present and non-trivial."""
    summaries = run_matrix(smoke=True, backend="reference",
                           workloads=CLOSED_APP_WORKLOADS)
    failures = (check_equivalence(smoke=True, reference=summaries,
                                  workloads=CLOSED_APP_WORKLOADS)
                + check_sanity(summaries)
                + check_completions(summaries))
    assert not failures, failures


# ----------------------------------------------------------------------
# script / CI entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized horizons")
    ap.add_argument("--json", default="",
                    help="write the report here (default: print only)")
    ap.add_argument("--workers", type=int, default=1,
                    help="process pool for the grid cells")
    ap.add_argument("--closed", action="store_true",
                    help="run the closed-loop workload variants "
                         "(request/reply windows, phased iterations) "
                         "and additionally gate completion reporting")
    args = ap.parse_args(argv)

    workloads = CLOSED_APP_WORKLOADS if args.closed else APP_WORKLOADS
    t0 = time.perf_counter()
    summaries = run_matrix(smoke=args.smoke, backend="reference",
                           workers=args.workers, workloads=workloads)
    rows = app_scenario_rows(summaries)
    emit("bench_app_scenarios", rows,
         title=f"application scenarios N={N} (per-class breakdown)")

    failures = (check_equivalence(args.smoke, reference=summaries,
                                  workers=args.workers,
                                  workloads=workloads)
                + check_sanity(summaries))
    if args.closed:
        failures += check_completions(summaries)
    report = {
        "bench": "app_scenarios",
        "mode": "smoke" if args.smoke else "full",
        "kinds": list(KINDS),
        "workloads": list(workloads),
        "cells": len(summaries),
        "wall_s": round(time.perf_counter() - t0, 2),
        "failures": failures,
        "rows": rows,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"[json] {args.json}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
