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
from repro.core.api import NETWORK_KINDS, build_network
from repro.core.collector import LatencyCollector
from repro.core.packet_format import FlitCodec
from repro.core.quadrant import QuadrantCalculator
from repro.noc.network import Network
from repro.noc.packet import (BROADCAST, MULTICAST, RELAY, UNICAST,
                              CollectiveOp, Packet)
from repro.sim.backend import BACKENDS, ReferenceBackend, SimBackend
from repro.sim.session import RunConfig, SimulationSession
from repro.topologies import (MeshTopology, QuarcTopology,
                              SpidergonTopology, TorusTopology)
from repro.traffic.mix import TrafficMix
from repro.traffic.workload import WorkloadSpec

__version__ = "1.1.0"

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
