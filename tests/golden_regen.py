"""Regenerate the golden `RunSummary` fixtures in ``tests/golden/``.

Usage (from the repo root)::

    PYTHONPATH=src python tests/golden_regen.py [--only NAME]

``--only`` (repeatable) regenerates just the named fixtures -- the
routine case when one deliberate semantic change moves one fixture and
the rest must provably stay untouched.

The fixtures pin the **seed semantics**: each JSON file is the full
``RunSummary`` of one small, fast, deterministic configuration run
through the ``reference`` backend.  ``tests/test_golden.py`` fails on
any drift -- so regenerating is a *deliberate*, reviewed act, only
legitimate when the simulated semantics intentionally change (in which
case the diff of the regenerated fixtures documents exactly what moved).

Backends are interchangeable here by contract: ``reference`` writes the
fixtures because it is the oracle, and ``tests/test_golden.py`` checks
them on both engines.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.sim.session import RunConfig, SimulationSession         # noqa: E402
from repro.traffic.workload import WorkloadSpec                    # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

RELAY_FAULTS = "links:down=2@cycle=800;router:node=5@cycle=1500"

#: name -> (spec, extra RunConfig kwargs).  Small horizons, all four
#: topologies, both collective modes and a non-default scenario, so a
#: semantic change anywhere in the stack moves at least one fixture.
GOLDEN_CONFIGS: List[Tuple[str, WorkloadSpec, Dict]] = [
    ("quarc16_uniform",
     WorkloadSpec(kind="quarc", n=16, msg_len=8, beta=0.1, rate=0.02,
                  cycles=3000, warmup=600, seed=42), {}),
    ("spidergon16_uniform",
     WorkloadSpec(kind="spidergon", n=16, msg_len=8, beta=0.1, rate=0.02,
                  cycles=3000, warmup=600, seed=42), {}),
    ("mesh16_uniform",
     WorkloadSpec(kind="mesh", n=16, msg_len=8, beta=0.05, rate=0.02,
                  cycles=3000, warmup=600, seed=42), {}),
    ("torus16_uniform",
     WorkloadSpec(kind="torus", n=16, msg_len=8, beta=0.05, rate=0.02,
                  cycles=3000, warmup=600, seed=42), {}),
    ("quarc16_hotspot_bursty",
     WorkloadSpec(kind="quarc", n=16, msg_len=4, beta=0.0, rate=0.03,
                  cycles=2500, warmup=500, seed=7,
                  pattern="hotspot:node=3,p=0.25",
                  arrival="bursty:on=0.3,len=8"), {}),
    ("quarc8_relay_ablation",
     WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.3, rate=0.03,
                  cycles=2000, warmup=400, seed=5),
     dict(bcast_mode="relay")),
    ("spidergon16_saturated",
     WorkloadSpec(kind="spidergon", n=16, msg_len=16, beta=0.0, rate=0.2,
                  cycles=1500, warmup=300, seed=3), {}),
    # multi-class application scenarios: pin the per-class breakdown
    # (summary.extra["classes"]) alongside the aggregate fields
    ("quarc16_cache_coherence",
     WorkloadSpec(kind="quarc", n=16, msg_len=8, beta=0.0, rate=1.0,
                  cycles=2500, warmup=500, seed=11,
                  workload="cache_coherence:storms=true"), {}),
    ("spidergon16_allreduce",
     WorkloadSpec(kind="spidergon", n=16, msg_len=8, beta=0.0, rate=1.0,
                  cycles=2500, warmup=500, seed=11,
                  workload="allreduce:chunk=6,rate=0.008"), {}),
    # closed-loop application engine: pins the reactive feedback path
    # end to end (directory request/reply, window stalls, completion
    # accounting in extra["classes"]) on top of the same coherence mix
    ("quarc16_cache_coherence_closed",
     WorkloadSpec(kind="quarc", n=16, msg_len=8, beta=0.0, rate=1.0,
                  cycles=2500, warmup=500, seed=11,
                  workload="cache_coherence:storms=true,window=4"), {}),
    # fault-injection fixtures: pin the degradation semantics (reroute
    # choices, purge set, drop accounting in extra["faults"]) -- one
    # explicit-link plan on the big ring, one router-death plan where
    # purges and at-source suppression both fire
    ("quarc64_link_faults",
     WorkloadSpec(kind="quarc", n=64, msg_len=8, beta=0.05, rate=0.004,
                  cycles=2000, warmup=400, seed=42,
                  faults="link:src=0,dst=1@cycle=600;"
                         "link:src=1,dst=0@cycle=600;"
                         "links:down=2@cycle=1200"), {}),
    ("torus16_router_faults",
     WorkloadSpec(kind="torus", n=16, msg_len=8, beta=0.05, rate=0.02,
                  cycles=2500, warmup=500, seed=42,
                  faults="router:node=5@cycle=0;"
                         "routers:down=1@cycle=1000"), {}),
    # relay chains under faults: a chain that cannot start or continue
    # drops the rest of its op (at the source and at every relay hop),
    # on the Spidergon and on the Quarc relay ablation
    ("spidergon16_relay_faults",
     WorkloadSpec(kind="spidergon", n=16, msg_len=8, beta=0.1, rate=0.02,
                  cycles=3000, warmup=600, seed=42,
                  faults=RELAY_FAULTS), {}),
    ("quarc8_relay_faults",
     WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.3, rate=0.03,
                  cycles=3000, warmup=600, seed=42, faults=RELAY_FAULTS),
     dict(bcast_mode="relay")),
]


def golden_row(name: str, backend: str = "reference") -> Dict:
    """Run one pinned config (on the reference backend, which writes the
    fixtures); returns the JSON-ready fixture payload."""
    for cname, spec, cfg in GOLDEN_CONFIGS:
        if cname == name:
            session = SimulationSession(
                RunConfig(spec=spec, backend=backend, **cfg))
            summary = session.run()
            # spec.to_dict() (not asdict) keeps pre-multi-class fixtures
            # byte-identical: fields still at their compat default (an
            # empty `workload`) are omitted from the serialized spec
            return {
                "config": {"spec": spec.to_dict(), **cfg},
                "summary": asdict(summary),
            }
    raise KeyError(f"unknown golden config {name!r}")


def main(argv=None) -> int:
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", action="append", default=None,
                    metavar="NAME",
                    help="regenerate only this fixture (repeatable)")
    args = ap.parse_args(argv)
    names = [name for name, _, _ in GOLDEN_CONFIGS]
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            print(f"error: unknown fixture(s) {unknown}; "
                  f"known: {names}", file=sys.stderr)
            return 2
        names = [n for n in names if n in set(args.only)]
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names:
        payload = golden_row(name)
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        s = payload["summary"]
        print(f"[golden] {path}: unicast_mean={s['unicast_mean']:.3f} "
              f"flits_moved={s['flits_moved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
