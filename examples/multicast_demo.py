#!/usr/bin/env python
"""BRCP multicast with bitstring targeting (Sec. 2.5.3 + Fig. 7).

Shows the whole multicast stack working together:

1. the transceiver partitions targets by quadrant and builds per-branch
   bitstrings (bit h = node at hop-distance h along the branch);
2. the switches clone flits only at targeted nodes;
3. the bit-exact codec round-trips the same header through the 34-bit
   wire format, demonstrating multi-flit headers when bitstrings spill.

Run:  python examples/multicast_demo.py
"""

from repro import MULTICAST, FlitCodec, build_network
from repro.core.collector import LatencyCollector
from repro.core.quadrant import QuadrantCalculator
from repro.sim.backend import DEFAULT_BACKEND, make_backend
from repro.topologies.quarc import QuarcTopology

N = 16
SRC = 0
TARGETS = [2, 5, 8, 11, 14]
SIZE = 6


def main() -> None:
    topo = QuarcTopology(N)
    calc = QuadrantCalculator(SRC, N)

    print(f"multicast from node {SRC} to {TARGETS} on a {N}-node Quarc\n")
    print("transceiver's view (quadrant calculator):")
    for t in TARGETS:
        quad, hops = calc.classify(t)
        print(f"  node {t:2d}: quadrant {quad:<7s} hop-distance {hops}"
              f"  (route {' -> '.join(map(str, topo.path(SRC, t)))})")

    # run it (drained through the same engine the session layer runs
    # by default)
    collector = LatencyCollector()
    net, _ = build_network("quarc", N, collector=collector)
    op = net.adapters[SRC].send_multicast(TARGETS, SIZE, now=0)
    make_backend(DEFAULT_BACKEND, net).drain()

    print(f"\ncompleted in {op.completion_latency} cycles; deliveries:")
    for node in sorted(op.deliveries):
        print(f"  node {node:2d} at cycle {op.deliveries[node]}")
    assert sorted(op.deliveries) == sorted(TARGETS)
    skipped = set(range(1, N)) - set(TARGETS)
    print(f"nodes {sorted(skipped)} forwarded flits without absorbing\n")

    # the same header on the wire
    codec = FlitCodec(32)
    bits = 0
    for t in TARGETS:
        if calc.quadrant(t) == "right":
            bits |= 1 << calc.hop_distance(t)
    flits = codec.encode_header(dst=4, src=SRC, length=SIZE,
                                traffic=MULTICAST, bitstring=bits)
    print(f"RIGHT-branch header on the wire ({codec.flit_bits}-bit flits):")
    for w in flits:
        print(f"  0b{w:0{codec.flit_bits}b}")
    hdr = codec.decode_flit(flits[0]).header
    print(f"decoded: dst={hdr.dst} src={hdr.src} len={hdr.length} "
          f"traffic={codec.traffic_name(hdr.traffic)} "
          f"bitstring=0b{hdr.bitstring:b}")


if __name__ == "__main__":
    main()
