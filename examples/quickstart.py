#!/usr/bin/env python
"""Quickstart: the low-level adapter API, then a scenario-driven run.

Part 1 demonstrates the three public entry points a downstream user
needs for hand-crafted traffic: ``build_network``, the adapter ``send*``
API and the shared latency collector (drained through a pluggable
simulation backend).

Part 2 runs the same network under a *named workload scenario* through
:class:`~repro.sim.session.SimulationSession` -- the entry point every
experiment, benchmark and CLI command uses (``repro scenarios list``
enumerates the registry).

Run:  python examples/quickstart.py
"""

from repro import UNICAST, Packet, build_network
from repro.core.collector import LatencyCollector
from repro.sim.backend import DEFAULT_BACKEND, make_backend
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.workload import WorkloadSpec


def main(cycles: int = 4_000, warmup: int = 1_000) -> None:
    # 1. build a network, hand-craft a little traffic ---------------------
    collector = LatencyCollector()
    net, topo = build_network("quarc", 8, collector=collector)
    print(f"built {net.name} with {net.n} nodes, "
          f"diameter {topo.diameter()}, avg hops {topo.average_hops():.2f}")

    tails = []
    net.on_tail = lambda node, pkt, now: tails.append((pkt, node, now))
    for src, dst in [(0, 3), (0, 4), (5, 1), (2, 6)]:
        pkt = Packet(src, dst, size=6, traffic=UNICAST)
        net.adapters[src].send(pkt, now=0)
    op = net.adapters[7].send_broadcast(size=6, now=0)

    # drain through the default engine (it runs the cycle in a compiled
    # kernel; the "reference" oracle produces identical results)
    drained = make_backend(DEFAULT_BACKEND, net).drain()
    print(f"network drained in {drained} cycles\n")

    print("unicast deliveries (latency = hops + M - 1 at zero load):")
    for pkt, node, now in tails:
        if pkt.traffic == UNICAST:
            route = " -> ".join(map(str, topo.path(pkt.src, pkt.dst)))
            print(f"  {pkt.src} -> {pkt.dst}: {now - pkt.created:3d} "
                  f"cycles  (route {route})")
    print(f"broadcast from node 7: completed in "
          f"{op.completion_latency} cycles")
    print(f"collector: {collector.delivered_unicast} unicasts, "
          f"{collector.completed_collective} collective ops, "
          f"mean unicast latency {collector.unicast_mean:.1f} cycles\n")

    # 2. the same architecture under a named workload scenario ------------
    spec = WorkloadSpec(kind="quarc", n=8, msg_len=6, beta=0.05,
                        rate=0.01, cycles=cycles, warmup=warmup, seed=7,
                        pattern="hotspot:node=0,p=0.25",
                        arrival="bursty:on=0.3,len=6")
    summary = SimulationSession(RunConfig(spec=spec)).run()
    print(f"scenario run [{spec.label()}]:")
    print(f"  {summary.delivered_msgs} messages delivered, "
          f"mean unicast latency {summary.unicast_mean:.1f} cycles, "
          f"mean broadcast completion {summary.bcast_mean:.1f} cycles")


if __name__ == "__main__":
    main()
