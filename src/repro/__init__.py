"""repro -- a reproduction of "Design and implementation of the Quarc
Network on-Chip" (Moadeli, Maji, Vanderbauwhede; IEEE IPDPS 2009).

A flit-level wormhole NoC simulator plus the paper's two architectures:

* the **Quarc** NoC -- edge-symmetric Spidergon variant with a doubled
  spoke, an all-port transceiver and true (absorb-and-forward) broadcast;
* the **Spidergon** baseline -- one-port router, single spoke, broadcast
  by consecutive unicasts;

together with mesh/torus comparison networks, analytical latency models,
the bit-exact packet format, a LocalLink link-layer model and an FPGA
area model reproducing the paper's cost analysis.

Quickstart
----------
>>> from repro import build_network, TrafficMix
>>> net, topo = build_network("quarc", 16)
>>> mix = TrafficMix(net, rate=0.01, msg_len=8, beta=0.05, seed=7)
>>> for t in range(2000):
...     mix.generate(t)
...     _ = net.step(t)
>>> coll = net.adapters[0].collector
>>> coll.delivered_unicast > 0
True
"""

from repro import _env  # noqa: F401  (first: before anything loads numpy)
from repro._lazy import lazy_exports

__version__ = "1.2.0"

# each name is imported from its module on first use (repro._lazy)
__getattr__ = lazy_exports(__name__, {
    ".core.api": ("NETWORK_KINDS", "build_network"),
    ".core.collector": ("LatencyCollector",),
    ".core.packet_format": ("FlitCodec",),
    ".core.quadrant": ("QuadrantCalculator",),
    ".noc.network": ("Network",),
    ".noc.packet": ("BROADCAST", "MULTICAST", "RELAY", "UNICAST",
                    "CollectiveOp", "Packet"),
    ".sim.backend": ("BACKENDS", "ReferenceBackend", "SimBackend"),
    ".sim.session": ("RunConfig", "SimulationSession"),
    ".topologies": ("MeshTopology", "QuarcTopology",
                    "SpidergonTopology", "TorusTopology"),
    ".traffic.mix": ("TrafficMix",),
    ".traffic.workload": ("WorkloadSpec",),
})

__all__ = [
    "build_network",
    "NETWORK_KINDS",
    "LatencyCollector",
    "FlitCodec",
    "QuadrantCalculator",
    "Network",
    "Packet",
    "CollectiveOp",
    "UNICAST",
    "MULTICAST",
    "BROADCAST",
    "RELAY",
    "SimBackend",
    "ReferenceBackend",
    "BACKENDS",
    "RunConfig",
    "SimulationSession",
    "QuarcTopology",
    "SpidergonTopology",
    "MeshTopology",
    "TorusTopology",
    "TrafficMix",
    "WorkloadSpec",
    "__version__",
]
