"""The paper's traffic mix, generalised to multi-class workloads.

Two construction modes drive one network through ``Network.send_unicast``
and the adapters' uniform ``send_broadcast`` interface:

* **Single-class (the paper's workload)** -- ``TrafficMix(net, rate,
  msg_len, beta)``: every node's arrival process (independent
  Bernoulli(rate) by default; :mod:`repro.traffic.arrival` adds bursty
  and trace-replay models) creates messages; each becomes a broadcast
  with probability ``beta`` and a pattern-chosen unicast otherwise, of
  ``msg_len`` flits either way (the paper's M).  Arrivals, β decisions
  and destinations are drawn a block at a time as numpy columns
  ``(cycle, node, dst)`` by :class:`~repro.traffic.columns.ColumnDraw`,
  word for word what the seed's per-message ``random.Random`` calls
  drew, so golden fixtures pin it.
* **Multi-class** -- ``TrafficMix(net, classes=[TrafficClass(...), ...])``:
  each :class:`TrafficClass` (name, rate, msg_len, pattern, arrival,
  cast) gets its own per-node arrival process and destination stream, so
  mixes like the paper's cache-coherence motivation (short invalidate
  broadcasts + long cache-line unicasts, Sec. 2.2) are first-class.
  Per-class draws come from their own named RNG streams
  (``node{i}.{name}.arrivals`` / ``.dst``), leaving the single-class
  streams untouched.  A firing injector is a *token* on a calendar
  (``{cycle: [injector index, ...]}``): stateless models are drawn a
  block at a time through ``arrivals_in``, reactive ones through
  ``arm``, and :meth:`TrafficMix.inject` draws the class / destination
  of each token when it fires.

:meth:`TrafficMix.fill_calendar` is the one arrival draw of both modes.
The reference loop's :meth:`TrafficMix.generate` and the array engine's
window loop read what it drew, so every
:class:`~repro.sim.backend.SimBackend` injects the same messages in the
same order; :meth:`TrafficMix.emit` is the one per-message emitter.
**Trace replay** engages automatically when the arrival model carries
a ``repro-trace/v2`` payload (destination, class, size and broadcast
flag per event): its injectors are tokens with one arrival per recorded
message, and :meth:`inject` sends that message verbatim, consuming no
randomness -- which makes v2 replay seed- and pattern-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.sim.rng import RngStreams
from repro.traffic.arrival import BernoulliInjector
from repro.traffic.columns import FAR, ColumnDraw
from repro.traffic.generators import DestinationPattern, UniformPattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network

__all__ = ["TrafficClass", "TrafficMix", "CAST_UNICAST", "CAST_BROADCAST"]

CAST_UNICAST = "unicast"
CAST_BROADCAST = "broadcast"

#: Cycles of arrivals one calendar fill draws ahead, at least.
CALENDAR_BLOCK = 2048
#: Expected arrivals a block of Bernoulli columns holds at least: at a
#: low rate a block spans more cycles, so per-block numpy work does not
#: outweigh the arrivals it draws.
BLOCK_ARRIVALS = 4096

#: ``on_inject`` tap signature: ``(node, now, cls, dst, size, bcast)``
#: where ``cls`` is the traffic-class name (``None`` for the untagged
#: single-class path) and ``dst`` is ``-1`` for broadcasts.
InjectTap = Callable[[int, int, Optional[str], int, int, bool], None]


@dataclass(frozen=True)
class TrafficClass:
    """One message class of a multi-class workload.

    Declarative and picklable: ``pattern`` / ``arrival`` are scenario
    spec strings (resolved lazily against the network, via
    :mod:`repro.workloads.registry`), so a class list can ride inside a
    frozen :class:`~repro.traffic.workload.WorkloadSpec` and be shipped
    to sweep worker processes.
    """

    name: str
    rate: float               # messages / node / cycle for this class
    msg_len: int              # flits per message (the per-class M)
    pattern: str = "uniform"      # spatial spec (unicast classes only)
    arrival: str = "bernoulli"    # temporal spec
    cast: str = CAST_UNICAST      # "unicast" | "broadcast"

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("traffic class needs a non-empty name")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"class {self.name!r}: rate must be in [0, 1] "
                f"(got {self.rate})")
        if self.msg_len < 1:
            raise ValueError(
                f"class {self.name!r}: message length must be >= 1 flit "
                f"(got {self.msg_len})")
        if self.cast not in (CAST_UNICAST, CAST_BROADCAST):
            raise ValueError(
                f"class {self.name!r}: cast must be 'unicast' or "
                f"'broadcast' (got {self.cast!r})")

    def scaled(self, factor: float) -> "TrafficClass":
        """A copy with ``rate`` multiplied by ``factor`` (the sweep axis
        of multi-class workloads).  The product is clamped to 1.0 --
        one arrival per node per cycle is the injection ceiling, so a
        sweep may push a class to saturation but can never crash on a
        multiplier that overshoots it."""
        from dataclasses import replace
        return replace(self, rate=min(1.0, self.rate * factor))


def _check_pattern_nodes(pattern: DestinationPattern, n: int,
                         what: str) -> None:
    """Reject a destination pattern built for a different network size.

    Mirrors the arrival-model ``nodes`` check: a 16-node permutation
    pattern silently picking out-of-range destinations on an 8-node
    network is exactly the class of bug that should fail at
    construction, not as a routing KeyError mid-run.
    """
    pat_n = getattr(pattern, "n", None)
    if pat_n is not None and pat_n != n:
        raise ValueError(
            f"{what} pattern {type(pattern).__name__} is built for "
            f"{pat_n} nodes but the network has {n}")


class TrafficMix:
    """Drives one network with a single- or multi-class workload."""

    def __init__(self, net: "Network", rate: Optional[float] = None,
                 msg_len: Optional[int] = None, beta: float = 0.0,
                 seed: int = 0,
                 pattern: Optional[DestinationPattern] = None,
                 stop_generating_at: Optional[int] = None,
                 arrival: Optional[Callable] = None,
                 classes: Optional[Sequence[TrafficClass]] = None):
        self.net = net
        #: optional drain horizon: no new messages at or after this cycle
        self.stop_generating_at = stop_generating_at
        #: optional tap fired as ``on_inject(node, now, cls, dst, size,
        #: bcast)`` for every injected message (the TraceRecorder hook);
        #: while it is set every message goes through :meth:`emit`, on
        #: either backend, so taps see identical event streams whichever
        #: engine drives the run
        self.on_inject: Optional[InjectTap] = None
        self.generated_unicasts = 0
        self.generated_broadcasts = 0
        #: per-class generation counts (empty on the untagged
        #: single-class path)
        self.class_generated: Dict[str, int] = {}
        #: the declared class list (``None`` in single-class mode)
        self.classes: Optional[Tuple[TrafficClass, ...]] = None
        #: v2 replay payload: per node, the recorded ``(t, dst, size,
        #: cls, bcast)`` messages, taken one per arrival
        self._replay: Optional[List[Iterator[tuple]]] = None
        #: attached closed-loop engine (see :meth:`attach_closedloop`)
        self._cl_engine = None
        #: True when any injector is a reactive arrival model (needs
        #: delivery feedback, so the mix must run cycle by cycle)
        self.reactive = False
        #: the coming injections, ``{cycle: [injector index, ...]}``:
        #: stateless injectors drawn a block at a time up to ``cal_end``
        #: (-1: nothing drawn yet), reactive ones whenever armed
        self.calendar: Dict[int, List[int]] = {}
        self.cal_end = -1
        #: single-class mode: the block draw, the current block's
        #: ``(cycle, node, dst)`` columns, the first row not yet taken
        #: and its cycle (``cal_end`` when none is left)
        self._draw: Optional[ColumnDraw] = None
        self.block: Optional[Tuple[np.ndarray, ...]] = None
        self.bpos = 0
        self._bnext = 0
        #: armed reactive injectors that fire after ``cal_end``: the
        #: next fill draws on from where their draws stopped
        self._resume: List[int] = []

        streams = RngStreams(seed)
        # identical streams for identical seeds => common random numbers
        # across the Quarc/Spidergon comparison (see repro.sim.rng)
        if classes is not None:
            if rate is not None or msg_len is not None or \
                    pattern is not None or arrival is not None or beta:
                raise ValueError(
                    "classes= is exclusive with the single-class "
                    "rate/msg_len/beta/pattern/arrival arguments")
            self._init_multiclass(net, classes, streams)
            return
        if rate is None or msg_len is None:
            raise ValueError("single-class TrafficMix needs rate and "
                             "msg_len (or pass classes=[...])")
        self._init_single(net, rate, msg_len, beta, pattern, arrival,
                          streams)

    # ------------------------------------------------------------------
    # construction: the paper's single-class workload (seed semantics)
    # ------------------------------------------------------------------
    def _init_single(self, net: "Network", rate: float, msg_len: int,
                     beta: float, pattern: Optional[DestinationPattern],
                     arrival: Optional[Callable],
                     streams: RngStreams) -> None:
        if msg_len < 1:
            raise ValueError(
                f"message length must be >= 1 flit (got {msg_len})")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1] (got {beta})")
        nodes = getattr(arrival, "nodes", None)
        if nodes is not None and nodes != net.n:
            raise ValueError(
                f"arrival model {getattr(arrival, 'spec', arrival)!r} is "
                f"pinned to {nodes} nodes but the network has {net.n}")
        self.rate = rate
        self.msg_len = msg_len
        self.beta = beta
        self.pattern = pattern or UniformPattern(net.n)
        _check_pattern_nodes(self.pattern, net.n, "destination")
        #: temporal model: ``arrival(node, rate, rng) -> injector``, an
        #: :class:`~repro.traffic.arrival.ArrivalModel` (default
        #: Bernoulli)
        self.arrival = arrival

        make = arrival if arrival is not None else (
            lambda node, r, rng: BernoulliInjector(r, rng))
        self._injectors = [
            make(i, rate, streams.get(f"node{i}.arrivals"))
            for i in range(net.n)]
        #: injection tokens, parallel to ``_injectors``: what ``inject``
        #: receives when the matching injector fires (plain node ids
        #: here; ``(node, class_index)`` pairs in multi-class mode)
        self.tokens: List[object] = list(range(net.n))
        self._class_rng = [streams.get(f"node{i}.class")
                           for i in range(net.n)]
        self._dst_rng = [streams.get(f"node{i}.dst") for i in range(net.n)]
        if any(inj.reactive for inj in self._injectors):
            raise ValueError(
                "reactive arrival models ('closedloop:...') need a "
                "closed-loop engine, which only multi-class closed-loop "
                "workloads wire up; use e.g. "
                "workload='cache_coherence:window=4'")

        replay = getattr(arrival, "replay", None)
        if replay is None:
            self._draw = ColumnDraw(self)
        else:
            # repro-trace/v2: the injectors replay one arrival per
            # recorded message; inject() sends that message verbatim
            self._replay = [iter(evs) for evs in replay]
            #: largest replayed message (the saturation heuristic's
            #: size reference, mirroring the declared max of the class
            #: mode so a replay judges `saturated` like its original)
            self.replay_max_len = max(
                (ev[2] for evs in replay for ev in evs), default=msg_len)

    # ------------------------------------------------------------------
    # construction: multi-class mode
    # ------------------------------------------------------------------
    def _init_multiclass(self, net: "Network",
                         classes: Sequence[TrafficClass],
                         streams: RngStreams) -> None:
        # Imported lazily: the registry imports repro.traffic.generators,
        # so a module-level import here would be circular in spirit (and
        # would force every mix consumer to pay the registry import).
        from repro.workloads.registry import (resolve_arrival,
                                              resolve_pattern)
        classes = tuple(classes)
        if not classes:
            raise ValueError("multi-class TrafficMix needs at least one "
                             "TrafficClass")
        seen = set()
        for cls in classes:
            if cls.name in seen:
                raise ValueError(f"duplicate traffic class {cls.name!r}")
            seen.add(cls.name)
        self.classes = classes
        self.class_generated = {cls.name: 0 for cls in classes}

        self._cls_patterns: List[Optional[DestinationPattern]] = []
        self._cls_arrivals = []
        for cls in classes:
            if cls.cast == CAST_UNICAST:
                pat: Optional[DestinationPattern]
                if isinstance(cls.pattern, DestinationPattern):
                    pat = cls.pattern
                else:
                    pat = resolve_pattern(cls.pattern, net.n)
                _check_pattern_nodes(pat, net.n, f"class {cls.name!r}")
                self._cls_patterns.append(pat)
            else:
                self._cls_patterns.append(None)
            model = (cls.arrival if callable(cls.arrival)
                     else resolve_arrival(cls.arrival))
            if getattr(model, "replay", None) is not None:
                raise ValueError(
                    f"class {cls.name!r}: a v2 trace replays a whole "
                    f"recorded run (destinations, classes and sizes "
                    f"included) and cannot serve as a per-class arrival "
                    f"model; replay it via the top-level arrival "
                    f"(e.g. repro trace replay), or supply a times-only "
                    f"v1 trace file (still fully supported) for "
                    f"per-class arrival timing")
            nodes = getattr(model, "nodes", None)
            if nodes is not None and nodes != net.n:
                raise ValueError(
                    f"class {cls.name!r}: arrival model "
                    f"{getattr(model, 'spec', model)!r} is pinned to "
                    f"{nodes} nodes but the network has {net.n}")
            self._cls_arrivals.append(model)

        # (node-major, class-minor) injector order: a cycle's calendar
        # entry is injected in this order, whichever backend drives it
        self._injectors = []
        self.tokens = []
        self._cls_dst_rng: List[List[object]] = []
        for i in range(net.n):
            self._cls_dst_rng.append(
                [streams.get(f"node{i}.{cls.name}.dst")
                 for cls in classes])
            for k, cls in enumerate(classes):
                inj = self._cls_arrivals[k](
                    i, cls.rate, streams.get(f"node{i}.{cls.name}.arrivals"))
                self._injectors.append(inj)
                self.tokens.append((i, k))
        self.reactive = any(inj.reactive for inj in self._injectors)

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def generate(self, now: int) -> None:
        """Per-cycle arrival pass; call before ``net.step(now)``."""
        if (self.stop_generating_at is not None
                and now >= self.stop_generating_at):
            return
        eng = self._cl_engine
        if eng is not None:
            # engine-driven injections (directory replies, phase
            # barriers, phase restarts) precede this cycle's sources
            eng.begin_cycle(now)
        elif self.reactive:
            raise RuntimeError(
                "this mix contains reactive (closed-loop) arrival "
                "models but no engine is attached to feed them "
                "delivery callbacks; build the mix from a closed-loop "
                "workload spec through SimulationSession (which wires "
                "a ClosedLoopEngine), or attach one explicitly via "
                "attach_closedloop()")
        if now >= self.cal_end:
            self.fill_calendar(now)
        if self.block is not None:
            if now >= self._bnext:
                cyc, node, dst = self.take(now + 1)
                for c, v, d in zip(cyc.tolist(), node.tolist(),
                                   dst.tolist()):
                    if c == now:
                        self.emit(v, d, now)
            return
        due = self.calendar.pop(now, None)
        if due is None:
            return
        due.sort()      # node-major, class-minor: arms append out of order
        injectors, tokens = self._injectors, self.tokens
        for i in due:
            inj = injectors[i]
            if inj.reactive:
                inj.fire()
                self.inject(tokens[i], now)
                self.arm(i, now + 1)
            else:
                self.inject(tokens[i], now)

    def fill_calendar(self, now: int) -> None:
        """Draw the next block, from ``now`` to the new ``cal_end``.

        Single-class: the ``(cycle, node, dst)`` columns of
        ``CALENDAR_BLOCK`` cycles, or of as many more as hold
        ``BLOCK_ARRIVALS`` expected Bernoulli arrivals, replace
        :attr:`block`.  Multi-class and replay: every stateless injector
        draws ``CALENDAR_BLOCK`` cycles into the calendar through
        ``arrivals_in``, in injector order, so each cycle's list comes
        out node-major, class-minor.  Reactive injectors that the last
        block left armed draw on from ``now``; the first fill arms every
        reactive injector.  Only arrival streams are drawn there: class
        and destination streams are drawn by :meth:`inject`, at the
        arrival cycle.
        """
        draw = self._draw
        if draw is not None:
            span = CALENDAR_BLOCK
            if draw.bernoulli:
                load = len(self.tokens) * self.rate
                span = min(max(span, math.ceil(BLOCK_ARRIVALS / load)),
                           FAR) if load else FAR
            stop = self.cal_end = now + span
            if self.stop_generating_at is not None:
                stop = min(stop, self.stop_generating_at)
            self.block = cyc, _, _ = draw.block(now, stop)
            self.bpos = 0
            self._bnext = int(cyc[0]) if len(cyc) else self.cal_end
            return
        first = self.cal_end < 0
        stop = self.cal_end = now + CALENDAR_BLOCK
        resume, self._resume = self._resume, []
        for i in resume:
            # still eligible: a source loses eligibility only by firing
            self._injectors[i].armed = False
            self.arm(i, now)
        if self.stop_generating_at is not None:
            stop = min(stop, self.stop_generating_at)
        cal = self.calendar
        for i, inj in enumerate(self._injectors):
            if not inj.reactive:
                for t in inj.arrivals_in(now, stop):
                    lst = cal.get(t)
                    if lst is None:
                        cal[t] = [i]
                    else:
                        lst.append(i)
            elif first:
                self.arm(i, now)

    def arm(self, i: int, at: int) -> None:
        """Put reactive injector ``i`` on the calendar if it is eligible
        from cycle ``at`` on and not already armed: called by whoever
        may have made it eligible (a credit, a phase quota, a firing)."""
        due = self._injectors[i].arm(at, self.cal_end)
        if due is None:
            return
        if due < self.cal_end:
            self.calendar.setdefault(due, []).append(i)
        else:           # no firing in this block: the next fill draws on
            self._resume.append(i)

    def take(self, until: int) -> Tuple[np.ndarray, ...]:
        """The current block's rows before cycle ``until`` not taken yet,
        as ``(cycle, node, dst)`` columns; taking them is the caller's
        promise to emit them, one by one through :meth:`emit` or as a
        window of columns."""
        cyc, node, dst = self.block
        lo = self.bpos
        hi = self.bpos = lo + int(np.searchsorted(cyc[lo:], until))
        self._bnext = int(cyc[hi]) if hi < len(cyc) else self.cal_end
        return cyc[lo:hi], node[lo:hi], dst[lo:hi]

    def inject(self, token, now: int) -> None:
        """A firing calendar token: draw its class / destination (or take
        its recorded message) and :meth:`emit` it.  ``token`` is a node id
        (replay) or a ``(node, class_index)`` pair (multi-class)."""
        fs = self.net.fault_state
        if fs is not None and fs.dead_nodes:
            node = token[0] if type(token) is tuple else token
            if node in fs.dead_nodes:
                # a dead node's PE generates nothing (suppressed, not
                # dropped); its recorded message is taken all the same,
                # so the k-th arrival keeps the k-th payload
                fs.suppressed_msgs += 1
                if self._replay is not None:
                    next(self._replay[node])
                return
        if self._replay is not None:    # the next recorded message
            node = token
            _, dst, size, name, bcast = next(self._replay[node])
            if bcast:
                dst = -1
        else:
            node, k = token
            eng = self._cl_engine
            if eng is not None and k in eng.closed_k:
                # a closed-loop class's issue is a transaction, not a bare
                # message: the engine owns sizing, tagging and accounting
                eng.issue(node, k, now)
                return
            cls = self.classes[k]
            name, size = cls.name, cls.msg_len
            dst = -1 if cls.cast == CAST_BROADCAST else \
                self._cls_patterns[k].pick(node, self._cls_dst_rng[node][k])
        self.emit(node, dst, now, size, name)

    def emit(self, node: int, dst: int, now: int,
             size: Optional[int] = None, name: Optional[str] = None,
             tag=None):
        """Send one message from ``node`` at ``now``: a unicast to ``dst``
        through ``Network.send_unicast`` (which decides if a ``Packet`` is
        built; ``tag`` comes back through ``net.on_tagged_tail``), or a
        broadcast for ``dst == -1``, whose op is returned.  ``size``
        defaults to the single-class ``msg_len``.  The one per-message
        path: the reference loop, a fault state, an ``on_inject`` tap and
        the closed-loop engine take every message through it."""
        if size is None:
            size = self.msg_len
        fs = self.net.fault_state
        if fs is not None and node in fs.dead_nodes:
            fs.suppressed_msgs += 1
            return None
        op = None
        if dst < 0:
            if self.on_inject is not None:
                self.on_inject(node, now, name, -1, size, True)
            op = self.net.adapters[node].send_broadcast(size, now)
            op.cls = name
            self.generated_broadcasts += 1
        else:
            if fs is not None and fs.src_cannot_reach(node, dst):
                # the dst draw is consumed either way, so the fault-free
                # prefix of the stream is byte-identical with and
                # without the drop
                fs.source_drop_unicast()
                return None
            if self.on_inject is not None:
                self.on_inject(node, now, name, dst, size, False)
            self.net.send_unicast(node, dst, size, name, now, tag)
            self.generated_unicasts += 1
        if name is not None:
            self.class_generated[name] = \
                self.class_generated.get(name, 0) + 1
        return op

    def attach_closedloop(self, engine) -> None:
        """Bind a :class:`~repro.workloads.closedloop.ClosedLoopEngine`:
        :meth:`generate` calls its ``begin_cycle`` hook each cycle and
        routes closed-loop class issues through ``engine.issue``.  The
        delivery side is the engine's own subscription
        (``net.on_tagged_tail``)."""
        if self._cl_engine is not None and self._cl_engine is not engine:
            raise ValueError("a closed-loop engine is already attached")
        self._cl_engine = engine

    @property
    def generated_total(self) -> int:
        return self.generated_unicasts + self.generated_broadcasts
