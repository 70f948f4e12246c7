"""The Spidergon network adapter: one queue, broadcast by unicast.

The PE stores packets in RAM and queues their addresses in a **single**
injection queue (Sec. 3.1), so every message -- whatever its destination
quadrant -- serialises through one injection channel.

Broadcast (Sec. 2.2): "deadlock-free broadcast can only be achieved by
consecutive unicast transmissions".  The most efficient algorithm costs
N-1 hops: two neighbour-relay chains, clockwise over ceil((N-1)/2) nodes
and counter-clockwise over the rest.  Each visited node absorbs the full
packet through the (single) ejection port, the switch rewrites the header
and re-injects the regenerated packet through the replication queue,
where it competes with through-traffic and the node's own messages.  This
store-rewrite-reinject pipeline at *packet* granularity is what makes
Spidergon broadcast latency scale like (N/2) * M rather than the Quarc's
N/4 + M.
"""

from __future__ import annotations

from typing import Iterable

from repro.noc.network import Adapter
from repro.noc.packet import BROADCAST, MULTICAST, CollectiveOp

__all__ = ["SpidergonAdapter"]


class SpidergonAdapter(Adapter):
    """One-port network adapter for one Spidergon node: every message
    enters ``local_q``; a regenerated relay segment ``repl_q``."""

    __slots__ = ()

    def _relay_queue(self, dst: int, forward: bool) -> str:
        # the source uses its own PE queue, a relay hop the replication
        # queue
        return "repl_q" if forward else "local_q"

    def send_broadcast(self, size: int, now: int) -> CollectiveOp:
        """Start the two broadcast-by-unicast relay chains."""
        return self._send_chains(None, BROADCAST, size, now)

    def send_multicast(self, targets: Iterable[int], size: int,
                       now: int) -> CollectiveOp:
        """Multicast as target-to-target relay chains (one per direction):
        each segment is an ordinary across-first unicast, regenerated at
        every intermediate target."""
        return self._send_chains(self._targets(targets), MULTICAST, size,
                                 now)
