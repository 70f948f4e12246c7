"""Pluggable simulation backends: the seam between *what* a cycle means
and *how fast* it executes.

A :class:`SimBackend` drives one :class:`~repro.noc.network.Network`
through simulated cycles.  Two implementations ship (the second lives
in its own module and registers itself when numpy is importable):

* :class:`ReferenceBackend` -- the correctness oracle.  It delegates to
  ``Network.step`` (the original, unmodified per-cycle semantics: poll
  every router, arbitrate, commit) so its behaviour is the seed
  simulator's behaviour by construction.
* :class:`~repro.sim.array_backend.ArrayBackend` -- the array-resident
  state engine producing *identical* results: it adopts ownership of
  the network's state into flat numpy arrays (the object graph becomes
  a lazily-materialised view) and runs both arbitration and commit over
  those arrays -- in a compiled C cycle kernel where a compiler is
  available, in the scalar Python loop the kernel was ported from
  otherwise.  It also **fast-forwards idle gaps**
  (:meth:`SimBackend._run_mix_fastforward`): when the network is empty
  it precomputes the traffic process in blocks and jumps the clock
  straight to the next arrival instead of spinning empty cycles.  See
  ``array_backend.py`` for the ownership contract.

Why fast-forwarding is bit-identical
------------------------------------
* Idle cycles are provably no-ops: with zero flits in flight, ``step``
  only advances the clock.  Fast-forwarding assigns the same final clock
  without executing the no-ops.
* Traffic fast-forwarding replays the same RNG draws: each node's arrival
  stream is drawn once per generating cycle (in cycle order) whether
  drawn lazily or in blocks, and the per-node class/destination streams
  are only consumed at actual arrivals (see
  :meth:`repro.traffic.mix.TrafficMix.precompute_arrivals`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network
    from repro.traffic.mix import TrafficMix

__all__ = ["SimBackend", "ReferenceBackend", "BACKENDS", "make_backend"]

#: ``probes`` maps a cycle number to a callback invoked *after* that
#: cycle's step (the experiment drivers use one mid-run backlog probe).
Probes = Dict[int, Callable[[int], None]]


class SimBackend:
    """Drives one network through simulated cycles.

    Subclasses implement :meth:`step`; the bundled run loops are generic
    but may be overridden for speed (the array backend routes
    :meth:`run_mix` to the block-precomputing fast-forward loop).
    """

    name = "abstract"

    def __init__(self, net: "Network"):
        self.net = net

    # -- single cycle ---------------------------------------------------
    def step(self, now: Optional[int] = None) -> int:
        """Advance one cycle; returns the number of flits moved."""
        raise NotImplementedError

    # -- bulk loops -----------------------------------------------------
    def run(self, cycles: int,
            per_cycle: Optional[Callable[[int], None]] = None) -> None:
        """Run ``cycles`` steps; ``per_cycle(t)`` runs before each step."""
        step = self.step
        t0 = self.net.cycle
        if per_cycle is None:
            for t in range(t0, t0 + cycles):
                step(t)
        else:
            for t in range(t0, t0 + cycles):
                per_cycle(t)
                step(t)

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

    #: Cycles of traffic precomputed per block in
    #: :meth:`_run_mix_fastforward` (subclasses may tune it).
    CHUNK = 2048

    def _run_mix_fastforward(self, mix: "TrafficMix", cycles: int,
                             probes: Optional[Probes],
                             busy: Callable[[], bool]) -> None:
        """Shared fast-forwarding ``run_mix`` body: block-precompute
        arrivals and jump the clock across provably-empty gaps.

        ``busy()`` is the backend's "a step could move a flit" test; it
        may overestimate (costing only a per-cycle step) but must never
        underestimate, because a cycle skipped here is never executed.
        """
        if getattr(mix, "reactive", False):
            # deep guard: reactive sources consult delivery feedback
            # every cycle, so block precomputation would silently
            # diverge from the reference loop -- the optimized run_mix
            # overrides are expected to route reactive mixes to the
            # per-cycle SimBackend.run_mix before reaching here
            raise RuntimeError(
                "reactive (closed-loop) mixes cannot be fast-forwarded; "
                "use the per-cycle SimBackend.run_mix path")
        net = self.net
        probes = probes or {}
        step = self.step
        inject = mix.inject
        t = net.cycle
        end = t + cycles
        while t < end:
            c1 = min(t + self.CHUNK, end)
            by_cycle = mix.precompute_arrivals(t, c1)
            pending = sorted(set(by_cycle).union(
                p for p in probes if t <= p < c1))
            pi = 0
            while t < c1:
                if busy():
                    # network busy: run cycle by cycle (reference order)
                    nodes = by_cycle.get(t)
                    if nodes is not None:
                        for i in nodes:
                            inject(i, t)
                    step(t)
                    cb = probes.get(t)
                    if cb is not None:
                        cb(t)
                    t += 1
                    continue
                # network empty: jump to the next arrival/probe cycle
                while pi < len(pending) and pending[pi] < t:
                    pi += 1
                if pi == len(pending):
                    net.cycle = t = c1
                    break
                nxt = pending[pi]
                if nxt > t:
                    net.cycle = t = nxt
                    continue
                nodes = by_cycle.get(t)
                if nodes is not None:
                    for i in nodes:
                        inject(i, t)
                    step(t)
                else:
                    net.cycle = t + 1     # probe-only cycle, still empty
                cb = probes.get(t)
                if cb is not None:
                    cb(t)
                t += 1
                pi += 1

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
        cycles taken (same liveness contract as ``Network.drain``)."""
        net = self.net
        start = net.cycle
        while self.in_flight():
            if net.cycle - start > max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles; "
                    f"{self.in_flight()} flits stuck (possible deadlock)")
            self.step()
        return net.cycle - start

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


BACKENDS: Dict[str, Type[SimBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
}

# The batched numpy kernel registers itself when numpy is importable;
# environments without numpy simply don't offer "array" (every consumer
# enumerates BACKENDS, so the CLI flag, RunConfig validation and the
# test matrices all follow automatically).
try:
    from repro.sim.array_backend import ArrayBackend
except ImportError:                                   # pragma: no cover
    ArrayBackend = None                               # type: ignore
else:
    BACKENDS[ArrayBackend.name] = ArrayBackend


def make_backend(name: str, net: "Network") -> SimBackend:
    """Instantiate backend ``name`` ("reference" | "array") for ``net``."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"expected one of {sorted(BACKENDS)}") from None
    return cls(net)
