"""The paper's traffic mix, generalised to multi-class workloads.

A mix is classes, each with its own per-node arrival process, message
size and destination pattern, driving one network through
``Network.send_unicast`` and ``Network.send_broadcast``:

* **Single-class (the paper's workload)** -- ``TrafficMix(net, rate,
  msg_len, beta)`` is the unnamed class 0 (``classes`` ``None``, streams
  ``node{i}.arrivals`` / ``.class`` / ``.dst``): every node's arrival
  process (independent Bernoulli(rate) by default;
  :mod:`repro.traffic.arrival` adds bursty and trace-replay models)
  creates messages of ``msg_len`` flits (the paper's M), each a
  broadcast with probability ``beta`` (its β coin) and a pattern-chosen
  unicast otherwise.
* **Multi-class** -- ``TrafficMix(net, classes=[TrafficClass(...), ...])``:
  each :class:`TrafficClass` (name, rate, msg_len, pattern, arrival,
  cast) draws from its own streams (``node{i}.{name}.arrivals`` /
  ``.dst``), so mixes like the paper's cache-coherence motivation (short
  invalidate broadcasts + long cache-line unicasts, Sec. 2.2) are
  first-class and the single-class streams stay untouched.

:meth:`TrafficMix.fill_calendar` is the one arrival draw and
:meth:`TrafficMix.inject` its one reader: it injects a window of
cycles, one at a time for the reference loop (:meth:`generate`), a
block ahead for the array engine -- the same messages in the same
order either way.  Each stateless class is drawn as columns ``(cycle,
node, dst, class)`` by a :class:`~repro.traffic.columns.ColumnDraw`,
word for word what the seed's per-message ``random.Random`` calls drew
(golden fixtures pin it), its β coins and destinations drawn as the
rows are taken; a reactive injector is a *token* on a calendar
(``{cycle: [injector index, ...]}``), armed through ``arm`` (on an
array engine its kernel's instead, :attr:`TrafficMix.kernel`).
**Trace replay** engages automatically when the arrival model carries
a ``repro-trace/v2`` payload (destination, class, size and broadcast
flag per event): its injectors are tokens with one arrival per recorded
message, each sent verbatim through :meth:`TrafficMix.emit`, the one
per-message emitter, consuming no randomness -- which makes v2 replay
seed- and pattern-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
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
    """Drives one network with a mix of classes (the paper's
    single-class workload is class 0)."""

    def __init__(self, net: "Network", rate: Optional[float] = None,
                 msg_len: Optional[int] = None, beta: float = 0.0,
                 seed: int = 0,
                 pattern: Optional[DestinationPattern] = None,
                 arrival: Optional[Callable] = None,
                 classes: Optional[Sequence[TrafficClass]] = None):
        self.net = net
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
        #: delivery feedback, from the closed-loop engine)
        self.reactive = False
        #: the coming injections, ``{cycle: [injector index, ...]}``:
        #: stateless injectors drawn a block at a time up to ``cal_end``
        #: (-1: nothing drawn yet), reactive ones whenever armed; its
        #: cycles, a heap
        self.calendar: Dict[int, List[int]] = {}
        self._cycles: List[int] = []
        self.cal_end = -1
        #: ``(class, draw)`` per stateless class, the current block's
        #: columns (:meth:`take`), the first row not yet taken and its
        #: cycle (``cal_end``: none left)
        self._draws: List[Tuple[int, ColumnDraw]] = []
        self.block: Optional[Tuple[np.ndarray, ...]] = None
        self.bpos = 0
        self._bnext = 0
        #: armed reactive injectors that fire after ``cal_end``: the
        #: next fill draws on from where their draws stopped
        self._resume: List[int] = []
        #: the array engine whose kernel fires the closed-loop sources
        #: (bound at the first fill; ``None``: this mix fires them)
        self.kernel = None

        net.on_continue = self._continued
        if classes is None:
            if rate is None or msg_len is None:
                raise ValueError("single-class TrafficMix needs rate and "
                                 "msg_len (or pass classes=[...])")
            kinds = [self._single(net, rate, msg_len, beta, pattern,
                                  arrival)]
        elif (rate is not None or msg_len is not None or
              pattern is not None or arrival is not None or beta):
            raise ValueError(
                "classes= is exclusive with the single-class "
                "rate/msg_len/beta/pattern/arrival arguments")
        else:
            kinds = self._multiclass(net, classes)
        # identical streams for identical seeds => common random numbers
        # across the Quarc/Spidergon comparison (see repro.sim.rng)
        self._build(net, RngStreams(seed), kinds)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _single(self, net: "Network", rate: float, msg_len: int,
                beta: float, pattern: Optional[DestinationPattern],
                arrival: Optional[Callable]) -> tuple:
        """The paper's workload (seed semantics) as class 0."""
        if msg_len < 1:
            raise ValueError(
                f"message length must be >= 1 flit (got {msg_len})")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1] (got {beta})")
        self.rate = rate
        self.msg_len = msg_len
        self.beta = beta
        self.pattern = pattern or UniformPattern(net.n)
        #: temporal model: ``arrival(node, rate, rng) -> injector``, an
        #: :class:`~repro.traffic.arrival.ArrivalModel` (default
        #: Bernoulli)
        self.arrival = arrival
        replay = getattr(arrival, "replay", None)
        if replay is not None:
            # repro-trace/v2: the injectors replay one arrival per
            # recorded message; _inject_token() sends it verbatim
            self._replay = [iter(evs) for evs in replay]
            #: largest replayed message (the saturation heuristic's
            #: size reference, mirroring the declared max of the class
            #: mode so a replay judges `saturated` like its original)
            self.replay_max_len = max(
                (ev[2] for evs in replay for ev in evs), default=msg_len)
        make = arrival if arrival is not None else (
            lambda node, r, rng: BernoulliInjector(r, rng))
        return None, msg_len, rate, beta, self.pattern, make

    def _multiclass(self, net: "Network",
                    classes: Sequence[TrafficClass]) -> List[tuple]:
        """A class list's per-class ``(name, size, rate, β, pattern,
        arrival model)``, validated."""
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
        kinds = []
        for cls in classes:
            pat: Optional[DestinationPattern] = None
            if cls.cast == CAST_UNICAST:
                pat = (cls.pattern if isinstance(cls.pattern,
                                                 DestinationPattern)
                       else resolve_pattern(cls.pattern, net.n))
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
            kinds.append((cls.name, cls.msg_len, cls.rate, None, pat, model))
        return kinds

    def _build(self, net: "Network", streams: RngStreams,
               kinds: Sequence[tuple]) -> None:
        """Check each class's pattern and arrival model against the
        network, then build every ``(node, class)``'s injector and
        streams, node-major and class-minor: a cycle's arrivals are
        injected in this order, whichever backend drives it."""
        for name, _, _, _, pattern, model in kinds:
            what = "destination" if name is None else f"class {name!r}"
            if pattern is not None:
                _check_pattern_nodes(pattern, net.n, what)
            nodes = getattr(model, "nodes", None)
            if nodes is not None and nodes != net.n:
                raise ValueError(
                    f"{'' if name is None else what + ': '}arrival model "
                    f"{getattr(model, 'spec', model)!r} is pinned to "
                    f"{nodes} nodes but the network has {net.n}")
        #: per class: ``(name, size, rate, β)``, its destination pattern
        #: (``None``: a broadcast class) and, per node, its destination
        #: and β coin streams (``None``: no coin, the class's cast decides)
        self._kinds = [kind[:4] for kind in kinds]
        self._patterns = [kind[4] for kind in kinds]
        pre = ["" if name is None else f"{name}." for name, *_ in kinds]
        self._dst_rng = [[streams.get(f"node{i}.{p}dst")
                          for i in range(net.n)] for p in pre]
        self._coin_rng = [None if kind[3] is None else
                          [streams.get(f"node{i}.{p}class")
                           for i in range(net.n)]
                          for kind, p in zip(kinds, pre)]
        #: injection tokens, parallel to ``_injectors``: the ``(node,
        #: class)`` that ``_inject_token`` receives when one fires
        self._injectors = []
        self.tokens: List[Tuple[int, int]] = []
        for i in range(net.n):
            for k, (_, _, rate, _, _, model) in enumerate(kinds):
                self._injectors.append(
                    model(i, rate, streams.get(f"node{i}.{pre[k]}arrivals")))
                self.tokens.append((i, k))
        self.reactive = any(inj.reactive for inj in self._injectors)
        if self.reactive and self.classes is None:
            raise ValueError(
                "reactive arrival models ('closedloop:...') need a "
                "closed-loop engine, which only multi-class closed-loop "
                "workloads wire up; use e.g. "
                "workload='cache_coherence:window=4'")
        if self._replay is None:
            self._draws = [(k, ColumnDraw(self, k)) for k in range(len(kinds))
                           if not self._injectors[k].reactive]

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def generate(self, now: int) -> None:
        """Per-cycle arrival pass; call before ``net.step(now)``."""
        self.inject(now, now + 1)

    def inject(self, now: int, until: int) -> int:
        """Inject the arrivals of cycles ``[now, until)``, each at its
        cycle; returns the cycle injected up to: ``until``, or earlier at
        the end of the block or the closed-loop engine's next scheduled
        cycle.  First the network's continuations due at ``now`` (the
        ``on_inject`` tap sees them here), then the engine's injections
        (phase barrier, phase restart).  The block's rows of the window
        are taken (:meth:`take`) and their destinations drawn, then go to
        an engine as columns (:meth:`_send_columns`), or through
        :meth:`emit` one by one (no engine, a fault state or an
        ``on_inject`` tap) merged with the calendar's tokens in cycle
        order, each cycle's in (node, class) order.  A reactive mix's
        window may be re-entered from a cycle inside it (a phase ended
        there).  Arrivals of cycles before ``now`` that no call injected
        (a drain ran them without traffic) are dropped undrawn: they
        spend no β coin or destination; a reactive source whose firing
        was dropped is armed again.

        On an array engine the kernel fires the closed-loop sources
        (``kernel``, bound at the first call): a window hands it the
        cycles it may fire in, and under a tap (one-cycle windows) the
        tap hears each request the kernel fires at ``now`` in its
        injector's place."""
        net = self.net
        eng = self._cl_engine
        if (eng is not None and self.cal_end < 0 and self.kernel is None
                and net.fault_state is None):
            bind = getattr(net.state_owner, "bind_sources", None)
            if bind is not None:
                self.kernel = bind(self)
        if self.on_inject is not None:
            for home, dst, size, name in net.due(now):
                self.on_inject(home, now, name, dst, size, False)
        net.send_due(now)
        if eng is not None:
            nxt = eng.begin_cycle(now)
            if nxt is not None and nxt < until:
                until = nxt
        elif self.reactive:
            raise RuntimeError(
                "this mix contains reactive (closed-loop) arrival "
                "models but no engine is attached to feed them "
                "delivery callbacks; build the mix from a closed-loop "
                "workload spec through SimulationSession (which wires "
                "a ClosedLoopEngine), or attach one explicitly via "
                "attach_closedloop()")
        cal, cycles, injectors = self.calendar, self._cycles, self._injectors
        if self.block is not None and self._bnext < now:
            self.take(now)      # a drain ran them: dropped undrawn
        while cycles and cycles[0] < now:
            for i in cal.pop(heappop(cycles)):
                if injectors[i].reactive:
                    injectors[i].armed = False
                    self.arm(i, now)
        if now >= self.cal_end:
            self.fill_calendar(now)
        if until > self.cal_end:
            until = self.cal_end
        rows = (self.take(until) if self.block is not None
                and self._bnext < until else None)
        fired = {}
        if self.kernel is not None:
            fired = self.kernel.open_window(now, until,
                                            self.on_inject is not None)
            for i in fired:
                self._book(now, i)
        for c, draw in self._draws if rows is not None else ():
            if draw.pattern is not None:    # drawn as the rows are taken
                mine = rows[3] == c
                rows[2][mine] = draw.destinations(rows[1][mine])
        if (rows is not None and net.state_owner is not None
                and net.fault_state is None and self.on_inject is None):
            self._send_columns(*rows)
            rows = None
        if rows is not None or cycles:
            self._fire_due(until, rows, fired)
        return until

    def _fire_due(self, until: int, rows, fired: Dict) -> None:
        """Fire the calendar's tokens before ``until`` and emit the taken
        rows, cycle by cycle, each cycle's in (node, class) order (see
        :meth:`inject`); a firing re-arms its source."""
        cal, cycles, injectors = self.calendar, self._cycles, self._injectors
        tokens, kinds = self.tokens, self._kinds
        cyc, node, dst, k = ((c.tolist() for c in rows) if rows is not None
                             else ((),) * 4)
        r = 0
        while True:
            c = cycles[0] if cycles and cycles[0] < until else until
            if r < len(cyc) and cyc[r] < c:
                c = cyc[r]
            if c >= until:
                return
            due = ([(tokens[i], i) for i in cal.pop(heappop(cycles))]
                   if cycles and cycles[0] == c else [])
            while r < len(cyc) and cyc[r] == c:
                due.append(((node[r], k[r]), ~r))
                r += 1
            due.sort(key=itemgetter(0))     # arms append out of order
            for tok, i in due:
                if i < 0:
                    name, size = kinds[k[~i]][:2]
                    self.emit(node[~i], dst[~i], c, size, name)
                elif i in fired:    # the kernel sends it; the tap hears it
                    self.on_inject(*fired[i])
                elif injectors[i].reactive:
                    injectors[i].fire(c)
                    self._inject_token(tok, c)
                    self.arm(i, c + 1)
                else:
                    self._inject_token(tok, c)

    def _send_columns(self, cyc, node, dst, k) -> None:
        """Stage taken rows with an engine: per class a window of unicast
        columns (``Network.send_unicasts``), then one of its broadcasts,
        ``dst < 0`` (``send_broadcasts``); its class rank orders them per
        queue."""
        net = self.net
        for c in np.flatnonzero(np.bincount(k)).tolist():
            name, size = self._kinds[c][:2]
            mine = k == c
            uni, bc = mine & (dst >= 0), mine & (dst < 0)
            net.send_unicasts(cyc[uni], node[uni], dst[uni], size, name)
            net.send_broadcasts(cyc[bc], node[bc], size, name)
            m, u = int(mine.sum()), int(uni.sum())
            self.generated_unicasts += u
            self.generated_broadcasts += m - u
            if name is not None:
                self.class_generated[name] += m

    def fill_calendar(self, now: int) -> None:
        """Draw the next block, from ``now`` to the new ``cal_end``.

        Each stateless class's ``(cycle, node)`` columns, with a class
        column and ``dst`` ``-1`` (:meth:`inject` draws destinations as it
        takes the rows), merged by cycle, node and class, replace
        :attr:`block`.  It spans ``CALENDAR_BLOCK`` cycles, or, unless
        the mix is reactive (the kernel's sources are interned per
        block), as many more as hold ``BLOCK_ARRIVALS`` expected arrivals
        when every stateless class is Bernoulli.  Replay injectors put a
        token on the calendar per arrival.  Reactive injectors that the
        last block left armed draw on from ``now``; the first fill arms
        every reactive injector (the kernel's, on an array engine).
        """
        first = self.cal_end < 0
        span = CALENDAR_BLOCK
        if (self._draws and not self.reactive
                and all(d.bernoulli for _, d in self._draws)):
            load = (len(self.tokens) // len(self._kinds)
                    * sum(kind[2] for kind in self._kinds))
            span = min(max(span, math.ceil(BLOCK_ARRIVALS / load)),
                       FAR) if load else FAR
        stop = self.cal_end = now + span
        if self._draws:
            blocks = [d.block(now, stop) for _, d in self._draws]
            cyc, node = map(np.concatenate, zip(*blocks))
            k = np.repeat([k for k, _ in self._draws],
                          [len(b[0]) for b in blocks])
            # by cycle, node, then class: stable, the classes in order
            order = np.argsort((cyc - now) * self.net.n + node,
                               kind="stable")
            cyc = cyc[order]
            self.block = (cyc, node[order], np.full(len(cyc), -1, np.int64),
                          k[order])
            self.bpos = 0
            self._bnext = int(cyc[0]) if len(cyc) else stop
        if self.kernel is not None:
            self.kernel.fill_sources(stop)
        resume, self._resume = self._resume, []
        for i in resume:
            # still eligible: a source loses eligibility only by firing
            self._injectors[i].armed = False
            self.arm(i, now)
        if self._replay is not None:
            for i, inj in enumerate(self._injectors):
                for t in inj.arrivals_in(now, stop):
                    self._book(t, i)
        elif first and self.kernel is None and self.reactive:
            for i, inj in enumerate(self._injectors):
                if inj.reactive:
                    self.arm(i, now)

    def _book(self, t: int, i: int) -> None:
        """Put injector ``i`` on the calendar at cycle ``t``."""
        lst = self.calendar.get(t)
        if lst is None:
            self.calendar[t] = [i]
            heappush(self._cycles, t)
        else:
            lst.append(i)

    def arm(self, i: int, at: int) -> None:
        """Put reactive injector ``i`` on the calendar if it is eligible
        from cycle ``at`` on and not already armed: called by whoever
        may have made it eligible (a credit, a phase quota, a firing).
        With a ``kernel`` the kernel arms it, from its quota."""
        if self.kernel is not None:
            self.kernel.arm_source(i, at)
            return
        due = self._injectors[i].arm(at, self.cal_end)
        if due is None:
            return
        if due < self.cal_end:
            self._book(due, i)
        else:           # no firing in this block: the next fill draws on
            self._resume.append(i)

    def credit(self, i: int, now: int) -> None:
        """A transaction of reactive injector ``i`` completed at ``now``:
        its window credit, which arms it from the next cycle (a
        ``kernel`` applied both already)."""
        self._injectors[i].outstanding -= 1
        if self.kernel is None:
            self.arm(i, now + 1)

    def take(self, until: int) -> Tuple[np.ndarray, ...]:
        """The current block's rows before cycle ``until`` not taken yet,
        as columns ``(cycle, node, dst, class)``; what is taken is no
        longer the mix's to inject."""
        cyc = self.block[0]
        lo = self.bpos
        hi = self.bpos = lo + int(np.searchsorted(cyc[lo:], until))
        self._bnext = int(cyc[hi]) if hi < len(cyc) else self.cal_end
        return tuple(c[lo:hi] for c in self.block)

    def _inject_token(self, token, now: int) -> None:
        """A firing calendar token ``(node, class)``: its recorded
        message, :meth:`emit`-ted (replay), or a closed-loop
        transaction."""
        node = token[0]
        fs = self.net.fault_state
        if fs is not None and fs.dead_nodes:
            if node in fs.dead_nodes:
                # a dead node's PE generates nothing (suppressed, not
                # dropped); its recorded message is taken all the same,
                # so the k-th arrival keeps the k-th payload
                fs.suppressed_msgs += 1
                if self._replay is not None:
                    next(self._replay[node])
                return
        if self._replay is None:
            # a closed-loop class's issue is a transaction, not a bare
            # message: the engine owns sizing, tagging and accounting
            self._cl_engine.issue(*token, now)
            return
        _, dst, size, name, bcast = next(self._replay[node])
        self.emit(node, -1 if bcast else dst, now, size, name)

    def emit(self, node: int, dst: int, now: int, size: int,
             name: Optional[str] = None, tag=None, cont=None,
             on_complete=None):
        """Send one ``size``-flit message from ``node`` at ``now``: a
        unicast to ``dst`` through ``Network.send_unicast`` (which decides
        if a ``Packet`` is built; ``tag`` comes back through
        ``net.on_tagged_tail``, ``cont`` is the reply the network sends
        back), or a broadcast for ``dst == -1`` through
        ``Network.send_broadcast`` (likewise; its op, if built, is
        returned, and ``on_complete(now)`` is called when it completes).
        The one per-message path: calendar tokens, the closed-loop engine
        and, without an engine or under a fault state or an ``on_inject``
        tap, every message."""
        fs = self.net.fault_state
        if fs is not None and node in fs.dead_nodes:
            fs.suppressed_msgs += 1
            return None
        op = None
        if dst < 0:
            if self.on_inject is not None:
                self.on_inject(node, now, name, -1, size, True)
            op = self.net.send_broadcast(node, size, name, now, on_complete)
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
            self.net.send_unicast(node, dst, size, name, now, tag, cont)
            self.generated_unicasts += 1
        if name is not None:
            self.class_generated[name] = \
                self.class_generated.get(name, 0) + 1
        return op

    def _continued(self, name: Optional[str], k: int = 1) -> None:
        """The network sent ``k`` continuations or fired requests of
        class ``name`` (``net.on_continue``): generated, as if emitted."""
        self.generated_unicasts += k
        if name is not None:
            self.class_generated[name] = \
                self.class_generated.get(name, 0) + k

    def attach_closedloop(self, engine) -> None:
        """Bind a :class:`~repro.workloads.closedloop.ClosedLoopEngine`:
        :meth:`inject` calls its ``begin_cycle`` hook at the head of each
        window (it returns its next scheduled cycle, or ``None``, where
        the window ends) and routes closed-loop class issues through
        ``engine.issue``.  The
        delivery side is the engine's own subscription
        (``net.on_tagged_tail``)."""
        if self._cl_engine is not None and self._cl_engine is not engine:
            raise ValueError("a closed-loop engine is already attached")
        self._cl_engine = engine

    @property
    def generated_total(self) -> int:
        return self.generated_unicasts + self.generated_broadcasts
