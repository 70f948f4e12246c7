"""The arrival-model protocol and its built-in temporal models.

One protocol, one module: every per-node injection process implements
:class:`ArrivalModel`, and :class:`~repro.traffic.mix.TrafficMix` reads
every one of them through one block draw, whichever backend drives it.

* **Stateless** models (``reactive = False``, the default) depend only
  on their own private RNG stream and internal state, never on network
  state.  They implement ``arrivals_in(start, stop)``: the arrival
  cycles of ``stop - start`` successive cycles.  The contract is
  *segmentation invariance*: splitting a horizon into consecutive calls
  of any lengths -- one cycle each, random cuts, or one call -- yields
  the same train and leaves the same state and RNG stream.  That is
  what lets the mix draw a block ahead and the ``array`` backend
  fast-forward idle gaps while staying byte-identical to the reference
  loop.
* **Reactive** models (``reactive = True``) depend on network state
  (e.g. a closed-loop source that stalls while its in-flight budget is
  exhausted, :mod:`repro.workloads.closedloop`).  ``arrivals_in``
  raises; the mix drives them through ``arm`` / ``fire`` instead, cycle
  by cycle (:meth:`repro.sim.backend.SimBackend.run_mix`).

Models
------
:class:`BernoulliInjector`
    Independent Bernoulli(rate) arrivals -- the discrete-time analogue
    of the Poisson sources in the paper's simulator.
:class:`BurstyInjector`
    A two-state Markov-modulated Bernoulli process (on/off MMPP):
    geometric ON bursts at an elevated rate separated by OFF silences,
    long-run average matched to ``rate``.
:class:`TraceInjector`
    Replays a fixed, recorded list of arrival cycles -- the
    deterministic leg of the trace record/replay loop in
    :mod:`repro.workloads.trace`.  Consumes no randomness at all.
:class:`ReplayInjector`
    The ``repro-trace/v2`` form of :class:`TraceInjector`: one arrival
    per recorded message, so a node may inject several in one cycle.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

__all__ = ["ArrivalModel", "BernoulliInjector", "BurstyInjector",
           "TraceInjector", "ReplayInjector", "NEVER"]


#: Gap sentinel for ``rate == 0`` sources: far beyond any horizon, large
#: enough that per-cycle countdown can never reach zero in practice.
NEVER = _NEVER = 1 << 62

#: Inter-arrival gaps are geometric; a gap draw costs one uniform draw,
#: so the process consumes one RNG value per *arrival*, not per cycle --
#: which is what lets the array backend fast-forward idle spans in
#: O(arrivals) instead of O(cycles).
_LOG = math.log
_LOG1P = math.log1p


class ArrivalModel:
    """Base of every per-node injection process.

    Subclasses set the ``reactive`` capability flag and maintain the
    ``arrivals`` counter; see the module docstring for the contract.
    Kept slots-compatible (``__slots__ = ()``) so the injectors stay
    slotted.
    """

    __slots__ = ()

    #: capability flag: ``False`` promises a segmentation-invariant
    #: ``arrivals_in`` (fast-forward legal); ``True`` means arrivals
    #: depend on network feedback and the mix drives ``arm`` / ``fire``.
    reactive = False

    def arrivals_in(self, start: int, stop: int) -> List[int]:
        """All arrival cycles in ``[start, stop)``, ascending.

        Consecutive calls over any split of a horizon return, together,
        what one call over the whole horizon returns, and leave the same
        internal state (and RNG stream).  Reactive models raise instead
        (their future depends on deliveries that have not happened
        yet)."""
        raise NotImplementedError


class BernoulliInjector(ArrivalModel):
    """Per-node Bernoulli(rate) arrival process.

    Implemented as its exact equivalent, a geometric inter-arrival
    countdown: after each arrival the number of non-arrival cycles until
    the next one is drawn as ``G = floor(ln(1-U) / ln(1-rate))`` (``G = 0``
    with probability ``rate``, i.e. back-to-back arrivals).
    :meth:`arrivals_in` walks the gap sequence and keeps the countdown
    to the next arrival across calls, so any segmentation of the horizon
    yields the same train from the same stream.  A single-class mix
    draws the same gaps from the same stream for all its nodes at once
    (:mod:`repro.traffic.columns`), after the first one drawn here.
    """

    __slots__ = ("rate", "rng", "arrivals", "_gap")

    def __init__(self, rate: float, rng: random.Random):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1] (got {rate})")
        self.rate = rate
        self.rng = rng
        self.arrivals = 0
        self._gap = self._draw_gap()          # cycles until first arrival

    def _draw_gap(self) -> int:
        """Non-arrival cycles preceding the next arrival."""
        rate = self.rate
        if rate < 1.0 / _NEVER:     # a gap past the sentinel (inf at
            return _NEVER           # subnormal rates): never fires
        if rate >= 1.0:
            return 0
        # floor(ln(1-U)/ln(1-rate)), U ~ Uniform[0,1): geometric with
        # P(G=0) = rate, so back-to-back arrivals keep probability `rate`.
        # log1p keeps the denominator non-zero (and accurate) for rates
        # below float epsilon, where log(1.0 - rate) would be 0.0.
        return int(_LOG(1.0 - self.rng.random()) / _LOG1P(-rate))

    def arrivals_in(self, start: int, stop: int) -> List[int]:
        """All arrival cycles in ``[start, stop)``; the countdown to the
        next arrival carries over to the next call."""
        out: List[int] = []
        if stop <= start:
            return out
        nxt = start + self._gap          # absolute cycle of next arrival
        while nxt < stop:
            out.append(nxt)
            self.arrivals += 1
            nxt += 1 + self._draw_gap()
        self._gap = nxt - stop
        return out


class BurstyInjector(ArrivalModel):
    """Two-state on/off Markov-modulated Bernoulli arrival process.

    Parameters
    ----------
    rate:
        Long-run average arrivals per cycle (the same knob every other
        injector has).
    rng:
        Private per-node stream (see :class:`repro.sim.rng.RngStreams`).
    on_frac:
        Target fraction of time spent in the ON state, in (0, 1).
    burst_len:
        Mean ON-dwell length in cycles (geometric, support >= 1).  The
        OFF dwell mean is derived as ``burst_len * (1-on_frac)/on_frac``
        so the duty cycle comes out at ``on_frac`` -- but dwell lengths
        are at least one whole cycle, so when that derived mean falls
        below 1 it is clamped and the *achievable* duty cycle
        (``burst_len / (burst_len + off_mean)``) is what the ON-state
        rate is scaled against.  The long-run average therefore matches
        ``rate`` whenever ``rate / duty`` stays below the 1.0
        arrival-per-cycle ceiling, clamped or not.

    RNG discipline: one draw per state toggle (the dwell length) plus
    one draw per ON cycle (the arrival coin).  OFF dwells consume
    nothing, so :meth:`arrivals_in` skips them in O(1) and the array
    backend's idle fast-forward keeps its O(arrivals)-ish cost profile.
    Dwell and coin draws are made cycle by cycle in order, so any
    segmentation of the horizon consumes the stream identically.
    """

    __slots__ = ("rate", "rate_on", "on_frac", "burst_len", "rng",
                 "arrivals", "_p_on", "_p_off", "_on", "_dwell")

    def __init__(self, rate: float, rng: random.Random,
                 on_frac: float = 0.3, burst_len: float = 8.0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1] (got {rate})")
        if not 0.0 < on_frac < 1.0:
            raise ValueError(
                f"on_frac must be in (0, 1) (got {on_frac}); "
                f"on_frac=1 is plain Bernoulli -- use 'bernoulli'")
        if burst_len < 1.0:
            raise ValueError(
                f"burst_len must be >= 1 cycle (got {burst_len})")
        self.rate = rate
        self.on_frac = on_frac
        self.burst_len = burst_len
        self.rng = rng
        self.arrivals = 0
        #: geometric dwell parameters (support >= 1, mean 1/p); dwells
        #: are whole cycles, so the OFF mean saturates at 1 and the
        #: achievable duty cycle is derived from the clamped means
        self._p_on = min(1.0, 1.0 / burst_len)
        off_mean = max(1.0, burst_len * (1.0 - on_frac) / on_frac)
        self._p_off = 1.0 / off_mean
        duty = burst_len / (burst_len + off_mean)
        self.rate_on = min(1.0, rate / duty) if rate > 0.0 else 0.0
        self._on = False
        self._dwell = self._draw_dwell(self._p_off)

    # ------------------------------------------------------------------
    def _draw_dwell(self, p: float) -> int:
        """Geometric dwell length >= 1 with mean 1/p (no draw at p=1)."""
        if p >= 1.0:
            return 1
        return 1 + int(_LOG(1.0 - self.rng.random()) / _LOG1P(-p))

    def _toggle(self) -> None:
        self._on = not self._on
        self._dwell = self._draw_dwell(self._p_on if self._on
                                       else self._p_off)

    def _coin(self) -> bool:
        r = self.rate_on
        if r <= 0.0:
            return False
        if r >= 1.0:
            return True
        return self.rng.random() < r

    # ------------------------------------------------------------------
    def arrivals_in(self, start: int, stop: int) -> List[int]:
        """All arrival cycles in ``[start, stop)``: OFF spans are skipped
        without draws, ON cycles flip one coin each, in order."""
        out: List[int] = []
        t = start
        while t < stop:
            if self._dwell == 0:
                self._toggle()
            span = min(self._dwell, stop - t)
            if not self._on:
                self._dwell -= span
                t += span
                continue
            self._dwell -= span
            if self.rate_on <= 0.0:
                t += span
                continue
            for _ in range(span):
                if self._coin():
                    out.append(t)
                    self.arrivals += 1
                t += 1
        return out


class TraceInjector(ArrivalModel):
    """Replays a recorded arrival train, one node's worth.

    ``cycles`` is a strictly-increasing sequence of arrival cycles
    *relative to the injector's first consumed cycle* (a fresh session
    starts its clock at 0, so absolute and relative coincide -- the
    common case).  Like the stochastic injectors, the process is
    position-based: the k-th consumed cycle corresponds to recorded
    cycle k, wherever in absolute time the driver happens to consume it.
    Consumes no randomness.
    """

    __slots__ = ("cycles", "arrivals", "_i", "_pos")

    def __init__(self, cycles: Sequence[int]):
        cyc = [int(c) for c in cycles]
        if any(c < 0 for c in cyc):
            raise ValueError("trace cycles must be non-negative")
        if any(b <= a for a, b in zip(cyc, cyc[1:])):
            raise ValueError(
                "trace cycles must be strictly increasing per node "
                "(at most one arrival per node per cycle)")
        self.cycles = cyc
        self.arrivals = 0
        self._i = 0          # next recorded arrival to replay
        self._pos = 0        # cycles consumed so far

    def arrivals_in(self, start: int, stop: int) -> List[int]:
        """All arrival cycles in ``[start, stop)``, one per recorded
        cycle that falls in the span."""
        out: List[int] = []
        if stop <= start:
            return out
        span = stop - start
        base = self._pos
        cycles = self.cycles
        i = self._i
        while i < len(cycles):
            rel = cycles[i] - base
            if rel >= span:
                break
            out.append(start + rel)
            self.arrivals += 1
            i += 1
        self._i = i
        self._pos = base + span
        return out


class ReplayInjector(TraceInjector):
    """Replays one node's ``repro-trace/v2`` messages.

    A :class:`TraceInjector` with one arrival per recorded *message*: a
    multi-class node may inject several messages in one cycle, so a
    cycle appears once per message.  ``cycles`` comes from a loaded
    :class:`~repro.workloads.trace.Trace` (sorted and validated there);
    :class:`~repro.traffic.mix.TrafficMix` pairs the k-th arrival with
    the k-th recorded payload.
    """

    __slots__ = ()

    def __init__(self, cycles: Sequence[int]):
        self.cycles = list(cycles)
        self.arrivals = 0
        self._i = 0
        self._pos = 0
