"""Ablation: how much of the Quarc's broadcast win is absorb-and-forward?

Runs the *same* Quarc topology (doubled spoke, all-port transceiver) with
``bcast_mode="relay"``: Spidergon-style broadcast-by-unicast relay
chains, whose segments no switch clones.  The residual gap between
"quarc-relay" and the real Spidergon then isolates the topology/all-port
contribution, while the gap between "quarc" and "quarc-relay" isolates
the absorb-and-forward mechanism -- which DESIGN.md calls out as the
paper's key broadcast claim.
"""

from benchlib import emit
from repro.experiments.latency import run_point
from repro.traffic.workload import WorkloadSpec


def _run():
    rows = []
    spec = WorkloadSpec(kind="quarc", n=16, msg_len=16, beta=0.05,
                        rate=0.008, cycles=8_000, warmup=2_000, seed=5)
    variants = [
        ("quarc", dict()),
        ("quarc-relay", dict(bcast_mode="relay")),
    ]
    for label, kwargs in variants:
        s = run_point(spec, **kwargs)
        rows.append({"variant": label, "bcast_lat": round(s.bcast_mean, 1),
                     "unicast_lat": round(s.unicast_mean, 1),
                     "bcast_n": s.bcast_samples})
    s = run_point(spec.with_kind("spidergon"))
    rows.append({"variant": "spidergon", "bcast_lat": round(s.bcast_mean, 1),
                 "unicast_lat": round(s.unicast_mean, 1),
                 "bcast_n": s.bcast_samples})
    return rows


def test_ablation_true_broadcast(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit("ablation_truebcast", rows,
         title="Ablation: absorb-and-forward vs broadcast-by-unicast")

    by = {r["variant"]: r for r in rows}
    # the clone mechanism is the dominant factor in the broadcast win
    assert by["quarc"]["bcast_lat"] * 3 < by["quarc-relay"]["bcast_lat"]
    # all-port + doubled spoke still help a relay broadcast vs Spidergon
    assert by["quarc-relay"]["bcast_lat"] <= 1.2 * by["spidergon"]["bcast_lat"]
    # unicast is unaffected by the broadcast mechanism choice
    assert (abs(by["quarc"]["unicast_lat"] - by["quarc-relay"]["unicast_lat"])
            < 0.5 * by["quarc"]["unicast_lat"])
