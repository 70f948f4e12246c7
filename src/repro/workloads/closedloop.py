"""The closed-loop application engine: state-aware traffic generation.

Open-loop sources inject independently of network state, which makes
saturation behaviour unphysical: real coherence and collective traffic
throttles itself on outstanding requests.  This module closes the loop.

Three pieces cooperate:

:class:`ClosedLoopSource`
    A *reactive* :class:`~repro.traffic.arrival.ArrivalModel`
    (``reactive = True``): per cycle it flips a think coin at the
    class's rate, but only while fewer than ``window`` of its messages
    are in flight (and, in phased workloads, while it still has phase
    quota).  ``arrivals_in`` raises -- future arrivals depend on
    deliveries that have not happened yet, so fast-forwarding is
    illegal by construction.
:class:`ClosedLoopWorkload`
    The declarative bundle a workload builder returns instead of a
    plain class list: the full :class:`~repro.traffic.mix.TrafficClass`
    declaration plus per-class :class:`ClosedLoopClass` descriptors
    (transaction mode, window, request size, home service time, phase
    quota) and the phase barrier/gap configuration.  Frozen and
    picklable, like everything else a
    :class:`~repro.traffic.workload.WorkloadSpec` resolves to.
:class:`ClosedLoopEngine`
    The runtime: it owns the injection-feedback seam and hears only its
    own transactions -- tagged unicasts (``Network.send_unicast(...,
    tag=)``, subscribed through ``net.on_tagged_tail``) and the phase
    barrier's ``CollectiveOp.on_complete``, which every backend fires at
    cycle granularity.  It (a) returns window credits on completions
    (``TrafficMix.credit``; the array engine's kernel has applied them
    already) and keeps the completion statistics, and (b) advances
    barrier-synchronised phases.  A request carries its
    directory reply as a network continuation
    (``Network.send_unicast(..., cont=)``), so the network, not the
    engine, sends it.  Its injections go through ``TrafficMix.emit``,
    so traffic accounting, the ``on_inject`` tap and the collector see
    one consistent stream whichever backend drives it.

Transaction modes
-----------------
``reqreply``
    The coherence shape: the source sends a short ``req_len``-flit
    request to a directory home (spatial model: the ``directory``
    pattern's NUMA quadrants).  The request carries its reply as a
    continuation: when its tail reaches the home, the network sends the
    ``msg_len``-flit reply, tagged ``(class, request created)``, ``1 +
    service`` cycles later, home back to requester -- the array engine
    from its kernel, with no Python between request and reply.  The
    reply's tail arrival releases the window slot, and the *completion
    time* --
    request injection to reply delivery, the full round trip including
    queueing on both legs -- is recorded per class.
``stream``
    The collective shape: the source's own ``msg_len``-flit message is
    the transaction; its tail delivery releases the slot and completes
    it.  With ``quota > 0`` the class is *phased*: each node may issue
    ``quota`` messages per phase, and when every phased message of the
    phase has been delivered the engine broadcasts the barrier class
    (rotating the barrier root across phases), waits for it to
    complete, idles ``gap`` cycles, and opens the next phase.  The
    barrier class's completion time is the phase duration
    (phase start to barrier completion).

Determinism: generation at ``t`` sees exactly the deliveries of cycles
``< t`` on every backend.  A source's future is fixed by two private
streams -- its think coins and its destinations -- so only the cycle of
the credit that arms it comes from the network.  The reference runs
one cycle at a time: ``TrafficMix.inject`` reads a calendar instead of
polling the sources, and the engine re-arms a source with every credit
and phase quota (see :class:`ClosedLoopSource`).  The array engine's
kernel holds the sources itself (``ArrayBackend.bind_sources``): a
credit re-arms its source inside the cycle that delivered it, the kernel
draws the same coins from a copy of the source's generator state (and
gives the state back), and it fires the source's next request --
interned ahead, with its reply -- at its cycle, among that cycle's rows
at its class's rank.  So a credit ends no window; Python is entered
after the batch to book what was fired and completed, and a window ends
only where the engine itself must act: the phase's last message (the
barrier is due) and the barrier's completion (the phase restarts).
Delivery order within a cycle is identical across backends and
continuations are sent in the order their requests arrived, so
closed-loop runs are byte-identical across backends, exactly like
open-loop runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.stats import OnlineStats
from repro.traffic.arrival import ArrivalModel
from repro.traffic.mix import CAST_BROADCAST, CAST_UNICAST, TrafficClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.traffic.mix import TrafficMix

__all__ = ["ClosedLoopSource", "ClosedLoopClass", "ClosedLoopWorkload",
           "ClosedLoopEngine", "MODE_REQREPLY", "MODE_STREAM"]

MODE_REQREPLY = "reqreply"
MODE_STREAM = "stream"


class ClosedLoopSource(ArrivalModel):
    """Reactive per-node source: think coin gated by an in-flight window.

    ``fires()`` returns ``False`` -- without reading a coin -- while
    ``window`` transactions are outstanding or the phase quota is spent;
    otherwise it flips one coin at ``rate`` (none at rate >= 1).  The
    coin count therefore depends on delivery feedback, which is fine:
    every backend hands a credit back before the cycle it can fire in,
    so the feedback (and hence the stream) is identical everywhere.

    A coin is one ``rng.random()`` of the source's private stream:
    ``fires()`` draws one, :meth:`arm` a run of them up to the calendar's
    block end, so a low think rate costs one coin per cycle run.  The
    array engine's kernel draws the same coins from a copy of the
    stream's state and gives the state back.

    The engine owns the bookkeeping: it increments nothing here beyond
    what ``fires()`` itself does, and returns window credits by
    decrementing ``outstanding`` when a transaction completes.

    ``fires()`` is the per-cycle specification; the mix runs the same
    process through :meth:`arm` / :meth:`fire` without polling.  A
    source only *loses* eligibility (window credit, quota) by firing and
    its stream is private, so once eligible its k-th coin decides its
    k-th coming cycle and can be read ahead; whoever makes it eligible
    again (a credit, a new phase quota) re-arms it.
    """

    __slots__ = ("rate", "rng", "window", "arrivals", "outstanding",
                 "quota_left", "armed")

    reactive = True

    def __init__(self, rate: float, rng: random.Random, window: int = 4):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1] (got {rate})")
        if window < 1:
            raise ValueError(
                f"closed-loop window must be >= 1 (got {window})")
        self.rate = rate
        self.rng = rng
        self.window = window
        self.arrivals = 0
        #: transactions in flight (issued, not yet completed)
        self.outstanding = 0
        #: issues left this phase; -1 = unphased (unlimited)
        self.quota_left = -1
        #: the next firing is drawn and on a calendar (see :meth:`arm`)
        self.armed = False

    def fires(self) -> bool:
        """One per-cycle issue check (stalls while the window is full)."""
        if self.outstanding >= self.window or not self.quota_left:
            return False
        r = self.rate
        if r <= 0.0:
            return False
        if r < 1.0 and self.rng.random() >= r:
            return False
        self.fire()
        return True

    def arm(self, at: int, stop: int) -> Optional[int]:
        """Arm this source if it is eligible from cycle ``at`` on and not
        armed yet: the cycle it fires at if polled from ``at`` on, the
        coins ``fires()`` would read taken here, one per cycle, up to
        ``stop``.  Returns a cycle ``>= stop`` when none of ``[at, stop)``
        fires (the source stays armed; the caller clears ``armed`` to
        read on from ``stop``), ``None`` when there is nothing to arm
        (not eligible, already armed, rate 0)."""
        r = self.rate
        if (self.armed or r <= 0.0 or self.outstanding >= self.window
                or not self.quota_left):
            return None
        self.armed = True
        if r < 1.0:
            coin = self.rng.random
            while at < stop and not coin() < r:
                at += 1
        return at

    def fire(self, now: int = -1, count: int = 1) -> None:
        """Issue ``count`` transactions (at cycle ``now``): what that many
        successful ``fires()`` book."""
        self.armed = False
        self.arrivals += count
        self.outstanding += count
        if self.quota_left > 0:
            self.quota_left -= count

    def arrivals_in(self, start: int, stop: int) -> List[int]:
        raise RuntimeError(
            "closed-loop sources are reactive: arrivals depend on "
            "deliveries that have not happened yet, so they cannot be "
            "drawn in blocks; the mix arms them instead (arm / fire)")


@dataclass(frozen=True)
class ClosedLoopClass:
    """Closed-loop descriptor for one traffic class of a workload.

    ``name`` must match a unicast :class:`TrafficClass` in the same
    workload whose ``arrival`` is a ``closedloop:`` spec (the class's
    ``rate`` is the think coin, its ``msg_len`` the data transfer).
    """

    name: str
    mode: str = MODE_REQREPLY     # "reqreply" | "stream"
    req_len: int = 2              # request size in flits (reqreply)
    service: int = 0              # home service cycles before the reply
    quota: int = 0                # issues per node per phase (0 = unphased)

    def __post_init__(self) -> None:
        if self.mode not in (MODE_REQREPLY, MODE_STREAM):
            raise ValueError(
                f"closed-loop class {self.name!r}: mode must be "
                f"{MODE_REQREPLY!r} or {MODE_STREAM!r} (got {self.mode!r})")
        if self.req_len < 1:
            raise ValueError(
                f"closed-loop class {self.name!r}: req_len must be >= 1 "
                f"flit (got {self.req_len})")
        if self.service < 0:
            raise ValueError(
                f"closed-loop class {self.name!r}: service must be >= 0 "
                f"cycles (got {self.service})")
        if self.quota < 0:
            raise ValueError(
                f"closed-loop class {self.name!r}: quota must be >= 0 "
                f"(got {self.quota})")


@dataclass(frozen=True)
class ClosedLoopWorkload:
    """A multi-class workload with closed-loop semantics attached.

    Returned by workload builders instead of a plain class list when
    closed-loop parameters are engaged;
    :class:`~repro.sim.session.SimulationSession` recognises it and
    wires a :class:`ClosedLoopEngine` around the mix.
    """

    classes: Tuple[TrafficClass, ...]
    closed: Tuple[ClosedLoopClass, ...]
    barrier: str = ""             # broadcast class ending each phase
    gap: int = 0                  # idle cycles between phases

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "closed", tuple(self.closed))
        if not self.classes:
            raise ValueError("closed-loop workload declares no classes")
        if not self.closed:
            raise ValueError(
                "closed-loop workload has no closed-loop classes; "
                "return the plain class list instead")
        if self.gap < 0:
            raise ValueError(f"phase gap must be >= 0 (got {self.gap})")
        by_name = {c.name: c for c in self.classes}
        for cl in self.closed:
            cls = by_name.get(cl.name)
            if cls is None:
                raise ValueError(
                    f"closed-loop class {cl.name!r} has no matching "
                    f"traffic class (declared: {sorted(by_name)})")
            if cls.cast != CAST_UNICAST:
                raise ValueError(
                    f"closed-loop class {cl.name!r} must be unicast "
                    f"(its transactions are point-to-point)")
            if not str(cls.arrival).startswith("closedloop"):
                raise ValueError(
                    f"closed-loop class {cl.name!r} needs a "
                    f"'closedloop:window=...' arrival spec "
                    f"(got {cls.arrival!r})")
        if self.barrier:
            cls = by_name.get(self.barrier)
            if cls is None or cls.cast != CAST_BROADCAST:
                raise ValueError(
                    f"barrier class {self.barrier!r} must be a declared "
                    f"broadcast class")
            if any(cl.name == self.barrier for cl in self.closed):
                raise ValueError(
                    f"barrier class {self.barrier!r} cannot itself be "
                    f"closed-loop")
        phased = any(cl.quota > 0 for cl in self.closed)
        if self.barrier and not phased:
            raise ValueError(
                "a barrier needs phased classes (quota > 0) to "
                "synchronise")

    def scaled(self, factor: float) -> "ClosedLoopWorkload":
        """Scale every class's think/arrival rate (the sweep axis)."""
        return replace(self, classes=tuple(
            c.scaled(factor) for c in self.classes))


class ClosedLoopEngine:
    """Runtime feedback seam between deliveries and injections.

    Construction wires it into the mix (issue interception + window
    hook) and subscribes :meth:`on_tagged_tail`.  A tag is the class
    index ``k`` (a stream message) or ``(k, request created)`` (a
    reply); requests are untagged and carry their reply as a
    continuation.  All state transitions happen either in a delivery
    hook (during a batch's replay) or in :meth:`begin_cycle` (at the
    head of ``inject``), so the inject-before-step cycle contract makes
    the whole loop deterministic across backends.
    """

    def __init__(self, wl: ClosedLoopWorkload, mix: "TrafficMix",
                 warmup: int = 0):
        if mix.classes is None:
            raise ValueError(
                "the closed-loop engine needs a multi-class mix built "
                "from the workload's class list")
        names = [c.name for c in mix.classes]
        for cl in wl.closed:
            if cl.name not in names:
                raise ValueError(
                    f"closed-loop class {cl.name!r} is not part of the "
                    f"mix (classes: {names})")
        self.wl = wl
        self.mix = mix
        self.warmup = warmup
        self.n = mix.net.n
        k_count = self._k_count = len(names)
        #: class index -> closed-loop descriptor
        self.closed_k: Dict[int, ClosedLoopClass] = {}
        #: class index -> per-node sources (mix-built injectors)
        self.sources: Dict[int, List[ClosedLoopSource]] = {}
        #: per-class completion accounting (closed classes + barrier)
        self.completed: Dict[str, int] = {}
        self.comp_stats: Dict[str, OnlineStats] = {}
        for cl in wl.closed:
            k = names.index(cl.name)
            srcs = [mix._injectors[i * k_count + k] for i in range(self.n)]
            for s in srcs:
                if not isinstance(s, ClosedLoopSource):
                    raise ValueError(
                        f"class {cl.name!r} resolved to "
                        f"{type(s).__name__}, not a ClosedLoopSource; "
                        f"its arrival spec must be 'closedloop:...'")
            self.closed_k[k] = cl
            self.sources[k] = srcs
            self.completed[cl.name] = 0
            self.comp_stats[cl.name] = OnlineStats()
        # barrier-synchronised phases
        self._phase_total = sum(cl.quota * self.n for cl in wl.closed
                                if cl.quota > 0)
        self._phase_left = self._phase_total
        self.phases_done = 0
        self.phase_start = 0
        self._barrier_k: Optional[int] = None
        self._barrier_at: Optional[int] = None
        self._resume_at: Optional[int] = None
        if wl.barrier:
            self._barrier_k = names.index(wl.barrier)
            self.completed[wl.barrier] = 0
            self.comp_stats[wl.barrier] = OnlineStats()
        if self._phase_total:
            for k, cl in self.closed_k.items():
                if cl.quota > 0:
                    for s in self.sources[k]:
                        s.quota_left = cl.quota
        mix.attach_closedloop(self)
        mix.net.on_tagged_tail = self.on_tagged_tail

    # ------------------------------------------------------------------
    # generation side (runs at the head of mix.generate)
    # ------------------------------------------------------------------
    def begin_cycle(self, now: int) -> Optional[int]:
        """Engine-driven injections for this cycle, before the sources;
        returns the next cycle one is scheduled at (``None``: none)."""
        if self._barrier_at is not None and now >= self._barrier_at:
            self._barrier_at = None
            self._inject_barrier(now)
        if self._resume_at is not None and now >= self._resume_at:
            self._resume_at = None
            self._start_phase(now)
        # never both set: the barrier's completion schedules the resume
        if self._resume_at is not None:
            return self._resume_at
        return self._barrier_at

    def request(self, k: int) -> Tuple[int, Optional[Tuple[int, int]]]:
        """Class ``k``'s transaction: the size of the message a firing
        sends and its reply's ``(size, delay)`` (``None``: a stream
        message, tagged ``k``, is the whole transaction)."""
        cl = self.closed_k[k]
        cls = self.mix.classes[k]
        if cl.mode == MODE_REQREPLY:
            return cl.req_len, (cls.msg_len, 1 + cl.service)
        return cls.msg_len, None

    def destinations(self, node: int, k: int, count: int) -> List[int]:
        """The next ``count`` destinations of ``node``'s class-``k``
        source, from its private stream: the k-th is its k-th firing's."""
        pick = self.mix._patterns[k].pick
        rng = self.mix._dst_rng[k][node]
        return [pick(node, rng) for _ in range(count)]

    def issue(self, node: int, k: int, now: int) -> None:
        """Inject one closed-loop transaction (the mix delegates here
        when a closed class's source fires)."""
        name = self.mix.classes[k].name
        size, reply = self.request(k)
        dst = self.destinations(node, k, 1)[0]
        if reply is not None:
            self.mix.emit(node, dst, now, size, name,
                          cont=(*reply, name, (k, now)))
        else:
            self.mix.emit(node, dst, now, size, name, k)

    @property
    def phased(self) -> List[int]:
        """The classes whose delivered messages count toward a phase."""
        return [k for k, cl in self.closed_k.items()
                if cl.quota > 0 and cl.mode == MODE_STREAM]

    def _inject_barrier(self, now: int) -> None:
        mix = self.mix
        cls = mix.classes[self._barrier_k]
        # rotate the barrier root so no node's injection port becomes
        # the permanent phase bottleneck
        src = self.phases_done % self.n
        mix.emit(src, -1, now, cls.msg_len, cls.name,
                 on_complete=self._barrier_completed)

    def _start_phase(self, now: int) -> None:
        self.phase_start = now
        self._phase_left = self._phase_total
        if self.mix.kernel is not None:
            self.mix.kernel.open_phase(self._phase_total)
        for k, cl in self.closed_k.items():
            if cl.quota > 0:
                for node, s in enumerate(self.sources[k]):
                    s.quota_left = cl.quota
                    self.mix.arm(node * self._k_count + k, now)

    # ------------------------------------------------------------------
    # delivery side (the network's tagged-tail hook, fired during step)
    # ------------------------------------------------------------------
    def on_tagged_tail(self, node: int, src: int, tag, created: int,
                       now: int) -> None:
        if type(tag) is tuple:
            # reply reached the requester: transaction complete
            k, created = tag
            self.mix.credit(node * self._k_count + k, now)
            self._complete(self.mix.classes[k].name, created, now)
            return
        # a stream message's own delivery is its completion
        k, cl = tag, self.closed_k[tag]
        self.mix.credit(src * self._k_count + k, now)
        self._complete(self.mix.classes[k].name, created, now)
        if cl.quota > 0 and self._phase_left:
            self._phase_left -= 1
            if not self._phase_left:
                self._phase_done(now)

    def on_completions(self, k, created, now) -> None:
        """:meth:`on_tagged_tail` for a batch of the kernel's transactions
        (class, created, cycle columns in delivery order; credits applied
        already): each class's completions in one pass, then the phase."""
        for c in np.flatnonzero(np.bincount(k)).tolist():
            mine = k == c
            name = self.mix.classes[c].name
            self.completed[name] += int(mine.sum())
            self.comp_stats[name].add_many(
                (now - created)[mine & (created >= self.warmup)], float)
        left = self._phase_left
        at = now[np.isin(k, self.phased)] if left else ()
        if len(at):
            self._phase_left = max(left - len(at), 0)
            if len(at) >= left:
                self._phase_done(int(at[left - 1]))

    def _phase_done(self, now: int) -> None:
        """Every phased message of this phase has been delivered."""
        if self._barrier_k is not None:
            self._barrier_at = now + 1
        else:
            self.phases_done += 1
            self._resume_at = now + 1 + self.wl.gap

    def _barrier_completed(self, now: int) -> None:
        # the phase's completion time runs from phase start to the
        # barrier broadcast reaching its last receiver
        self._complete(self.wl.barrier, self.phase_start, now)
        self.phases_done += 1
        self._resume_at = now + 1 + self.wl.gap

    def _complete(self, name: str, created: int, now: int) -> None:
        self.completed[name] += 1
        if created >= self.warmup:
            self.comp_stats[name].add(float(now - created))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def class_block(self, name: str) -> Optional[Dict[str, object]]:
        """Completion-time summary keys for one class, or ``None`` for
        classes without closed-loop semantics (plain open-loop classes
        riding in the same workload)."""
        if name not in self.completed:
            return None
        stats = self.comp_stats[name]
        return {"completed": self.completed[name],
                "completion_mean": stats.mean if stats.n else 0.0,
                "completion_samples": stats.n}
