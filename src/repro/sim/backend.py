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
  arrays (the object graph becomes a lazily-built view) and runs
  both arbitration and commit over those arrays in a compiled C cycle
  kernel.  On a host where the kernel cannot be built or loaded,
  :func:`make_backend` hands out ``reference`` in its place (the loader
  warns once).  See ``array_backend.py`` for the ownership contract.

One loop, :meth:`SimBackend.run_mix`, drives both: it walks windows
``[t, w1)``, each injected by ``TrafficMix.inject`` and then executed by
``_advance``.  A window is one cycle on ``reference``; on ``array``
(``inject_ahead``) it runs to the end of the mix's block, just past the
next probe cycle or to the closed-loop engine's next scheduled cycle,
and the engine runs it until Python is needed, idle gaps skipped.  A
closed loop's sources run in the array engine's kernel, so a window
ends early only after a cycle whose tail or completion the
closed-loop engine must act on (a phase's end, its barrier): the next
window starts at the cycle after it.  A reactive mix under an
``on_inject`` tap or a fault state runs one-cycle windows on both.

Why running ahead is bit-identical
----------------------------------
* Idle cycles are provably no-ops: with zero flits in flight, ``step``
  only advances the clock, so jumping it assigns the same final clock.
* Both backends read one arrival draw through one reader,
  ``TrafficMix.inject``: every stream is per node and drawn in arrival
  order, whether a window is one cycle or a block; the generation
  counters are only read at probe cycles and at the end, and fault
  events are probes.
* The engine folds what was injected by one rule (``_stage``): an
  entry is due at ``max(created, next cycle to run)``, the rows of a
  cycle in the order the reference's FIFOs get them.
* A closed loop's feedback lands before the cycle it can act in: the
  kernel applies a credit in the cycle that delivers it and arms the
  source from the next, reading the same coin buffer the reference's
  calendar reads, and fires the request at its cycle at its class's
  fold rank; what Python does at a phase's end happens at the end of
  that cycle, where the window ends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network
    from repro.traffic.mix import TrafficMix

__all__ = ["SimBackend", "ReferenceBackend", "BACKENDS", "DEFAULT_BACKEND",
           "ConservationError", "make_backend"]

#: The engine every entry point runs when no backend is named -- the one
#: place the default is spelled (``RunConfig.backend``, the CLI's
#: ``--backend`` and every experiment driver derive theirs from it).
DEFAULT_BACKEND = "array"

#: ``probes`` maps a cycle number to a callback invoked *after* that
#: cycle's step (the experiment drivers use one mid-run backlog probe).
Probes = Dict[int, Callable[[int], None]]


class ConservationError(RuntimeError):
    """Flits were lost or gained: a run ends with injected != ejected +
    purged + in flight, or an array engine's packet-table mark walked
    other than the flits in flight (a ring, a pending FIFO or the
    in-flight count is off)."""


class SimBackend:
    """Drives one network through simulated cycles.

    Subclasses implement :meth:`step`; :meth:`run_mix` is the one run
    loop, and :meth:`_advance` what executes each of its windows.
    """

    name = "abstract"
    #: whether :meth:`run_mix` may inject a window of cycles ahead of
    #: the one it executes (fixed per engine)
    inject_ahead = False

    def __init__(self, net: "Network"):
        self.net = net

    # -- single cycle ---------------------------------------------------
    def step(self, now: Optional[int] = None) -> int:
        """Advance one cycle; returns the number of flits moved."""
        raise NotImplementedError

    def _advance(self, now: int, horizon: int) -> int:
        """Execute the window ``[now, horizon)``: one cycle, here, since
        a backend that does not inject ahead gets windows of one;
        returns the cycle it stopped before."""
        self.step(now)
        return now + 1

    # -- bulk loops -----------------------------------------------------
    def run_mix(self, mix: "TrafficMix", cycles: int,
                probes: Optional[Probes] = None) -> None:
        """Drive ``mix`` + network for ``cycles`` cycles from ``net.cycle``:
        windows ``[t, w1)``, each injected by ``mix.inject`` and executed
        by :meth:`_advance` as far as it gets, a probe called after its
        cycle.  A window is one cycle unless the backend injects ahead
        (and, for a reactive mix, no tap or fault state is set); then it
        ends where the mix's does (block, engine) or just past the next
        probe cycle."""
        probes = probes or {}
        t = self.net.cycle
        end = t + cycles
        balance = self._flit_balance()
        due = sorted(p for p in probes if t <= p < end)
        due.append(end)
        ahead = self.inject_ahead and not (mix.reactive and (
            mix.on_inject is not None or self.net.fault_state is not None))
        pi = 0
        while t < end:
            w1 = mix.inject(t, min(due[pi] + 1, end) if ahead else t + 1)
            t = self._advance(t, w1)
            if due[pi] == t - 1:
                probes[t - 1](t - 1)
                pi += 1
        if self._flit_balance() != balance:
            net, fs = self.net, self.net.fault_state
            raise ConservationError(
                f"flits injected - ejected - purged - in flight went from "
                f"{balance} to {self._flit_balance()} in the run "
                f"({net.flits_injected} injected, {net.flits_ejected} "
                f"ejected, {fs.purged_flits if fs is not None else 0} "
                f"purged, {net.fabric_flits()} in flight)")

    def _flit_balance(self) -> int:
        """Injected - ejected - purged - in flight (queued or waiting to
        fold): a run leaves it as it found it."""
        net, fs = self.net, self.net.fault_state
        return (net.flits_injected - net.flits_ejected - net.fabric_flits()
                - (fs.purged_flits if fs is not None else 0))

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
