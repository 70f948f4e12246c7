"""Pluggable simulation backends: the seam between *what* a cycle means
and *how fast* it executes.

A :class:`SimBackend` drives one :class:`~repro.noc.network.Network`
through simulated cycles.  Two implementations ship, with two roles:

* :class:`ReferenceBackend` (``reference``) -- the correctness oracle
  every equivalence test, golden fixture and fuzz run compares against.
  It delegates to ``Network.step`` (the original, unmodified per-cycle
  semantics: poll every router, arbitrate, commit) so its behaviour is
  the seed simulator's behaviour by construction.
* :class:`~repro.sim.array_backend.ArrayBackend` (``array``) -- the
  engine, and :data:`DEFAULT_BACKEND`: what every entry point runs
  unless told otherwise.  It produces *identical* results 8-60x
  faster: it adopts ownership of the network's state into flat numpy
  arrays (the object graph becomes a lazily-materialised view) and runs
  both arbitration and commit over those arrays in a compiled C cycle
  kernel.  On a host where the kernel cannot be built or loaded,
  :func:`make_backend` hands out ``reference`` in its place (the loader
  warns once).  Its own ``run_mix`` drives
  **windows, not cycles**: it reads the mix's arrival draw a block at
  a time, injects a window ahead (a single-class mix's unicasts as
  columns) and lets the cycle body run until Python is needed, idle
  gaps skipped.  See ``array_backend.py`` for
  the ownership contract.

Why running ahead is bit-identical
----------------------------------
* Idle cycles are provably no-ops: with zero flits in flight, ``step``
  only advances the clock, so jumping it assigns the same final clock.
* Both backends read one arrival draw, made a block ahead by
  :meth:`repro.traffic.mix.TrafficMix.fill_calendar`: every stream is
  per node and drawn in arrival order, whether the reference loop
  injects a cycle at a time or the array loop a window ahead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network
    from repro.traffic.mix import TrafficMix

__all__ = ["SimBackend", "ReferenceBackend", "BACKENDS", "DEFAULT_BACKEND",
           "make_backend"]

#: The engine every entry point runs when no backend is named -- the one
#: place the default is spelled (``RunConfig.backend``, the CLI's
#: ``--backend`` and every experiment driver derive theirs from it).
DEFAULT_BACKEND = "array"

#: ``probes`` maps a cycle number to a callback invoked *after* that
#: cycle's step (the experiment drivers use one mid-run backlog probe).
Probes = Dict[int, Callable[[int], None]]


class SimBackend:
    """Drives one network through simulated cycles.

    Subclasses implement :meth:`step`; :meth:`run_mix` is the generic
    per-cycle loop and may be overridden for speed (the array backend's
    drives windows read from the mix's calendar).
    """

    name = "abstract"

    def __init__(self, net: "Network"):
        self.net = net

    # -- single cycle ---------------------------------------------------
    def step(self, now: Optional[int] = None) -> int:
        """Advance one cycle; returns the number of flits moved."""
        raise NotImplementedError

    # -- bulk loops -----------------------------------------------------
    def run_mix(self, mix: "TrafficMix", cycles: int,
                probes: Optional[Probes] = None) -> None:
        """Drive ``mix`` + network for ``cycles`` cycles from ``net.cycle``."""
        step = self.step
        gen = mix.generate
        t0 = self.net.cycle
        if not probes:
            for t in range(t0, t0 + cycles):
                gen(t)
                step(t)
            return
        for t in range(t0, t0 + cycles):
            gen(t)
            step(t)
            cb = probes.get(t)
            if cb is not None:
                cb(t)

    def apply_faults(self, fs, events: List[dict]) -> None:
        """Apply due fault events (:mod:`repro.faults`) to the network.

        The base implementation hands the object graph straight to
        :meth:`~repro.faults.FaultState.apply`; backends whose state
        lives elsewhere (the array engine) override this to wrap the
        application in a materialize/resync pair and mirror the dead
        ports into their own structures.
        """
        fs.apply(self.net, events)

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run without new traffic until the network empties; returns
        cycles taken.  ``Network.drain`` is the one drain loop: its
        ``step`` / ``total_flits`` reach an array engine through
        ``net.state_owner``."""
        return self.net.drain(max_cycles)

    # -- introspection --------------------------------------------------
    def in_flight(self) -> int:
        return self.net.total_flits()

    def detach(self) -> None:
        """Release any hooks installed on the network."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} net={self.net.name!r}>"


class ReferenceBackend(SimBackend):
    """The seed semantics, kept as the correctness oracle.

    ``Network.step`` *is* the reference implementation (poll every
    router, arbitrate, commit in node order); delegating rather than
    copying guarantees the oracle can never drift from the fabric.
    """

    name = "reference"

    def step(self, now: Optional[int] = None) -> int:
        return self.net.step(now)


# Down here because array_backend imports SimBackend from this module.
# numpy is a hard dependency: without it this import fails, naming numpy.
from repro.sim import array_backend  # noqa: E402
from repro.sim.array_backend import ArrayBackend  # noqa: E402

BACKENDS: Dict[str, Type[SimBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    ArrayBackend.name: ArrayBackend,
}


def make_backend(name: str, net: "Network") -> SimBackend:
    """Instantiate backend ``name`` ("reference" | "array") for ``net``;
    ``array`` on a host without the C cycle kernel is ``reference``."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"expected one of {sorted(BACKENDS)}") from None
    if cls is ArrayBackend and array_backend.load_cycle_kernel() is None:
        cls = ReferenceBackend
    return cls(net)
