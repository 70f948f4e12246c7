#!/usr/bin/env python
"""MPSoC cache-coherence scenario: the paper's motivating workload.

"Broadcasts are a key mechanism to maintain cache coherency in MPSoCs.
As the number of cores grows, cache synchronization will become a
bottleneck ... unless the NoC has an efficient broadcast mechanism."
(Sec. 2.2)

The model: N cores run a shared-memory workload.  Each write to a shared
line triggers an *invalidate broadcast* to all other caches; reads and
private writes travel as ordinary unicasts to the home memory node.  We
measure the end-to-end invalidation time (write issued -> every remote
cache invalidated), which bounds the write stall in a sequentially
consistent system -- on Quarc and Spidergon with identical workloads.

The two traffic classes carry different message sizes; since the
multi-class refactor that is exactly what a ``TrafficMix`` expresses, so
this example is nothing but the registered ``cache_coherence``
application workload run through a ``SimulationSession`` -- the same
entry point the CLI reaches with::

    repro run --workload cache_coherence:storms=true

The per-class numbers (fill latency vs invalidation latency) come from
the summary's ``classes`` breakdown.

Run:  python examples/cache_coherence.py [n_cores]
"""

import sys

from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.workload import WorkloadSpec

INVALIDATE_SIZE = 2    # address-only message: header + one payload flit
DATA_SIZE = 10         # cache-line fill: header + 8 data flits + tail
CYCLES = 6_000
WARMUP = 1_500
READ_RATE = 0.012      # line fills per core per cycle
WRITE_SHARED_RATE = 0.002   # shared-line writes (-> invalidate broadcast)

WORKLOAD = (f"cache_coherence:read_rate={READ_RATE},"
            f"write_rate={WRITE_SHARED_RATE},"
            f"data_len={DATA_SIZE},inv_len={INVALIDATE_SIZE}")


def run(kind: str, n: int, seed: int = 2026, cycles: int = CYCLES,
        warmup: int = WARMUP) -> dict:
    spec = WorkloadSpec(kind=kind, n=n, msg_len=DATA_SIZE, beta=0.0,
                        rate=1.0, cycles=cycles, warmup=warmup, seed=seed,
                        workload=WORKLOAD)
    # same seed => identical workload per NoC (common random numbers)
    session = SimulationSession(RunConfig(spec=spec))
    summary = session.run()
    session.backend.detach()
    classes = summary.per_class
    return {
        "kind": kind,
        "fills": classes["fill"]["delivered"],
        "fill_latency": classes["fill"]["latency_mean"],
        "invalidations": classes["inv"]["delivered"],
        "invalidate_latency": classes["inv"]["latency_mean"],
    }


def main(n: int = 16, cycles: int = CYCLES, warmup: int = WARMUP) -> None:
    print(f"cache-coherence workload on {n} cores "
          f"({READ_RATE:.3f} fills + {WRITE_SHARED_RATE:.3f} shared "
          f"writes per core per cycle)\n")
    results = [run(kind, n, cycles=cycles, warmup=warmup)
               for kind in ("quarc", "spidergon")]
    hdr = (f"{'NoC':<10} {'line fills':>10} {'fill lat':>9} "
           f"{'invalidations':>11} {'inval lat':>10}")
    print(hdr)
    print("-" * len(hdr))
    for r in results:
        print(f"{r['kind']:<10} {r['fills']:>10} "
              f"{r['fill_latency']:>8.1f}c {r['invalidations']:>11} "
              f"{r['invalidate_latency']:>9.1f}c")
    q, s = results
    if q["invalidate_latency"] > 0:
        print(f"\nwrite-invalidation completes "
              f"{s['invalidate_latency'] / q['invalidate_latency']:.1f}x "
              f"faster on the Quarc -- the paper's cache-sync argument.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 16)
