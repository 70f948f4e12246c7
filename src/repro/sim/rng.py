"""Deterministic named random-number streams.

Every stochastic element of an experiment (per-node injection processes,
destination choices, traffic-class coin flips) draws from its own named
stream derived from a single experiment seed.  This gives two properties
the paper's methodology needs:

* **Reproducibility** -- the same seed reproduces the same flit-by-flit
  simulation, which the test-suite relies on.
* **Common random numbers** -- comparing Quarc vs Spidergon with the same
  seed feeds both networks an identical workload (same arrival times,
  destinations and broadcast decisions), sharpening the latency comparison
  exactly like replaying one OMNeT++ scenario against two networks.
"""

from __future__ import annotations

import random
from typing import Dict

try:
    # the object ``hashlib.blake2b`` is, without hashlib's OpenSSL load
    from _blake2 import blake2b
except ImportError:     # pragma: no cover - a CPython built without it
    from hashlib import blake2b

__all__ = ["RngStreams", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses BLAKE2b so unrelated names give statistically independent seeds
    and the mapping is stable across Python versions (unlike ``hash``).
    """
    digest = blake2b(f"{root_seed}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngStreams:
    """A factory of named, independent ``random.Random`` streams.

    >>> streams = RngStreams(seed=42)
    >>> a = streams.get("node0.arrivals")
    >>> b = streams.get("node1.arrivals")
    >>> a is streams.get("node0.arrivals")   # cached
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.seed, name))
            self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RngStreams":
        """A child factory whose streams are independent of the parent's."""
        return RngStreams(derive_seed(self.seed, f"spawn:{name}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)
