"""Quarc vs Spidergon across the full workload-scenario matrix.

Not a paper artefact -- the paper evaluates one workload (uniform +
beta).  This benchmark drives the :mod:`repro.workloads` scenario grid
(every registered spatial pattern x the stochastic arrival models) over
both architectures and

* emits the comparison table + CSV (``results/bench_scenarios.csv``),
  computed on the ``reference`` oracle -- named explicitly, it is not
  the default engine;
* verifies the ``array`` engine stays **summary-identical** to that
  matrix on every cell (neither the injector seam nor the compiled
  kernel may perturb a single scenario);
* asserts basic sanity: every cell delivers traffic, and the hotspot
  pattern degrades (or at best matches) uniform latency on both NoCs.

Entry points::

    pytest benchmarks/bench_scenarios.py       # matrix smoke test
    python benchmarks/bench_scenarios.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from benchlib import backend_equivalence_failures, emit
from repro.experiments.sweep import sweep_scenarios
from repro.sim.records import RunSummary
from repro.traffic.workload import WorkloadSpec
from repro.workloads import PATTERN, list_scenarios

KINDS = ("quarc", "spidergon")
#: Every registered spatial pattern, by canonical name (the matrix
#: follows the registry: a newly registered pattern joins automatically).
PATTERNS = tuple(info.name for info in list_scenarios(PATTERN))
ARRIVALS = ("bernoulli", "bursty:on=0.3,len=8")

#: N=16 keeps every pattern legal (power-of-two for transpose /
#: bit-complement, N % 4 == 0 for Quarc); the rate sits below both
#: architectures' knees under uniform traffic so scenario-induced
#: congestion (hotspot, transpose) is visible rather than clipped.
N, MSG_LEN, BETA, RATE = 16, 8, 0.05, 0.006


def _base_spec(smoke: bool) -> WorkloadSpec:
    cycles, warmup = (3_000, 750) if smoke else (12_000, 3_000)
    return WorkloadSpec(kind="quarc", n=N, msg_len=MSG_LEN, beta=BETA,
                        rate=RATE, cycles=cycles, warmup=warmup, seed=1)


def run_matrix(smoke: bool = False, *, backend: str,
               workers: int = 1) -> List[RunSummary]:
    base = _base_spec(smoke)
    return sweep_scenarios(base, patterns=PATTERNS, arrivals=ARRIVALS,
                           kinds=KINDS, backend=backend, workers=workers)


def matrix_rows(summaries: List[RunSummary]) -> List[Dict[str, object]]:
    rows = []
    for s in summaries:
        row = s.row()
        row["pattern"] = s.extra.get("pattern", "")
        row["arrival"] = s.extra.get("arrival", "")
        rows.append(row)
    return rows


def check_equivalence(smoke: bool,
                      reference: Optional[List[RunSummary]] = None,
                      workers: int = 1) -> List[str]:
    """Reference vs every optimized backend on every cell; returns
    failure messages.

    Pass an already-computed ``reference`` matrix to avoid re-running
    it (``main`` reuses its report rows)."""
    return backend_equivalence_failures(
        run_matrix,
        lambda s: f"{s.noc} {s.extra['pattern']} {s.extra['arrival']}",
        smoke=smoke, reference=reference, workers=workers)


def check_sanity(summaries: List[RunSummary]) -> List[str]:
    failures = []
    lat: Dict[tuple, float] = {}
    for s in summaries:
        label = f"{s.noc} {s.extra['pattern']} {s.extra['arrival']}"
        if s.delivered_msgs <= 0:
            failures.append(f"{label}: delivered no traffic")
        lat[(s.noc, s.extra["pattern"], s.extra["arrival"])] = \
            s.unicast_mean
    for noc in KINDS:
        uni = lat[(noc, "uniform", "bernoulli")]
        hot = lat[(noc, "hotspot", "bernoulli")]
        if hot < uni * 0.95:
            failures.append(
                f"{noc}: hotspot latency {hot:.1f} below uniform "
                f"{uni:.1f} -- contention model suspect")
    return failures


# ----------------------------------------------------------------------
# pytest entry point (benchmarks are not part of tier-1 collection)
# ----------------------------------------------------------------------
def test_scenario_matrix_smoke():
    failures = check_equivalence(smoke=True)
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
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    summaries = run_matrix(smoke=args.smoke, backend="reference",
                           workers=args.workers)
    rows = matrix_rows(summaries)
    emit("bench_scenarios", rows,
         title=f"scenario matrix N={N} M={MSG_LEN} beta={BETA:g} "
               f"rate={RATE:g}")

    failures = (check_equivalence(args.smoke, reference=summaries,
                                  workers=args.workers)
                + check_sanity(summaries))
    report = {
        "bench": "scenarios",
        "mode": "smoke" if args.smoke else "full",
        "kinds": list(KINDS),
        "patterns": list(PATTERNS),
        "arrivals": list(ARRIVALS),
        "cells": len(rows),
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
