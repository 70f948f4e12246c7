"""The differential harness: one generator, one oracle, and the tools
that localise a divergence.

Every engine must give, for one spec and seed, the ``RunSummary`` the
reference gives, byte for byte.  This module is where that promise is
defined:

* :func:`random_case` / :func:`random_configs` -- **the generator**: a
  deterministic stream of cases across topology, size, pattern,
  arrival, rate, message length, beta, fault plans, closed loops,
  multi-class mixes and probes, each run under one of the array
  engine's stress settings (:data:`STRESS`, applied by
  :func:`stressed`).  :func:`named_cases` adds hand-aimed traffic the
  stream cannot draw (multicast bursts, custom closed loops).
* :func:`check_case` -- **the oracle**: the case on the reference and on
  the array engine under its stress setting, as a session runs it,
  traced, and traced one cycle at a time; summaries, ``repro-metrics``
  streams, replayed events, state digests and the flit identity must
  all agree (``tests/test_differential.py`` runs the corpus through
  it).
* :func:`find_divergence` -- drive two backends **in lockstep**, one
  cycle at a time, comparing network state after every cycle; returns
  a :class:`Divergence` naming the first cycle where the full state
  snapshots (:meth:`~repro.noc.network.Network.state_snapshot`: every
  buffer's flit queue and switching table, every port's round-robin
  pointer, VC owner table and flit counter) disagree, with a per-key
  state diff.  :func:`check_case` calls it when a summary differs.

Typical debugging session (see also ``src/repro/sim/README.md``)::

    from differential import find_divergence, make_config
    cfg = make_config(kind="torus", n=36, rate=0.15, seed=23)
    div = find_divergence(cfg, "reference", "array")
    print(div.report())     # first diverging cycle + state diff

Note the lockstep driver injects traffic cycle-by-cycle through
``TrafficMix.generate`` on both sessions, so the windowed ``run_mix``
is *not* exercised there -- :func:`check_case` covers it.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence)
from unittest import mock

import numpy as np

from repro.noc.network import flit_key
from repro.sim.records import RunSummary
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.workload import WorkloadSpec

__all__ = ["Divergence", "make_config", "run_summaries", "find_divergence",
           "find_shard_divergence", "STRESS", "stressed", "Case",
           "random_case", "random_configs", "multicast_burst_inject",
           "named_cases", "CLOSED_LOOP_CASES", "CUSTOM_CLOSED_LOOPS",
           "custom_workload", "drive", "check_case"]


def make_config(kind: str = "quarc", n: int = 8, msg_len: int = 4,
                beta: float = 0.1, rate: float = 0.03, cycles: int = 900,
                warmup: int = 200, seed: int = 1,
                pattern: str = "uniform", arrival: str = "bernoulli",
                workload: str = "", faults: str = "",
                buffer_depth: int = 4, **cfg) -> RunConfig:
    """A :class:`RunConfig` with fuzz-friendly defaults."""
    spec = WorkloadSpec.parse(kind=kind, n=n, msg_len=msg_len, beta=beta,
                              rate=rate, cycles=cycles, warmup=warmup,
                              seed=seed, pattern=pattern, arrival=arrival,
                              workload=workload, faults=faults,
                              buffer_depth=buffer_depth)
    return RunConfig(spec=spec, **cfg)


def run_summaries(config: RunConfig,
                  backends: Sequence[str]) -> List[RunSummary]:
    """Run ``config`` once per backend; returns the summaries in order."""
    out = []
    for name in backends:
        session = SimulationSession(config.with_backend(name))
        out.append(session.run())
        session.backend.detach()
    return out


# ----------------------------------------------------------------------
# lockstep divergence search
# ----------------------------------------------------------------------
@dataclass
class Divergence:
    """First cycle where two backends' network states disagree.

    For sharded runs (:func:`find_shard_divergence`) the mismatch is
    additionally localised: ``shard`` names the shard whose *owned*
    state slice disagrees with the serial engine, and ``halo_cycle`` is
    the wall cycle whose halo apply exposed it (the sharded invariant is
    post-apply-at-``t`` == serial post-step-at-``t - 1``)."""

    backend_a: str
    backend_b: str
    cycle: int                     # the cycle whose step diverged
    diffs: List[str] = field(default_factory=list)  # human-readable lines
    faults: str = ""               # the config's fault plan, if any
    shard: Optional[int] = None    # owning shard (sharded runs only)
    halo_cycle: Optional[int] = None  # wall cycle of the exposing apply

    def report(self, limit: int = 40) -> str:
        head = (f"backends {self.backend_a!r} vs {self.backend_b!r} "
                f"diverge after stepping cycle {self.cycle}")
        if self.shard is not None:
            head += (f" [owned by shard {self.shard}, seen at halo "
                     f"cycle {self.halo_cycle}]")
        if self.faults:
            head += f" [faults: {self.faults}]"
        body = self.diffs[:limit]
        if len(self.diffs) > limit:
            body.append(f"... {len(self.diffs) - limit} more differing keys")
        return "\n".join([head] + [f"  {line}" for line in body])


def _diff_state(a: Dict[str, object], b: Dict[str, object],
                prefix: str = "") -> List[str]:
    out: List[str] = []
    for key in a:
        va, vb = a[key], b.get(key)
        label = f"{prefix}{key}"
        if isinstance(va, dict) and isinstance(vb, dict):
            out.extend(_diff_state(va, vb, prefix=f"{label}."))
        elif va != vb:
            out.append(f"{label}: {va!r} != {vb!r}")
    return out


#: Cycles between :func:`find_divergence`'s full-snapshot checkpoints.
_SNAPSHOT_EVERY = 128


def _digest(net) -> list:
    """Every field of ``net.state_snapshot()`` with each flit queue cut
    to (length, front flit): differing digests mean differing snapshots.
    An array-owned network is read from the flat arrays
    (``ArrayBackend.state_digest``), never materialised."""
    be = net.state_owner
    if be is None:
        bufs = [(len(b.q), flit_key(*b.q[0]) if b.q else None,
                 b.cur_out.name if b.cur_out is not None else None,
                 b.cur_vc, b.cur_deliver) for b in net.iter_buffers()]
        ports = [(p.rr, [o.label if o is not None else None
                         for o in p.owner], p.flits_sent)
                 for p in net.iter_ports()]
    else:
        bufs, ports = be.state_digest()
    return [net.cycle, net.flits_moved, net.deliveries, bufs, ports]


def find_divergence(config: RunConfig, backend_a: str, backend_b: str,
                    cycles: Optional[int] = None,
                    drain_limit: int = 100_000, inject=None,
                    _full_from: float = math.inf) -> Optional[Divergence]:
    """Run two backends cycle-by-cycle and return the first divergence.

    Both sessions receive identical injections (same seeds, same
    per-cycle ``generate`` calls).  Returns ``None`` when no divergence
    shows up within ``cycles`` (default: the config's horizon) plus a
    bounded drain -- so bugs that only manifest once traffic stops
    (stale caches touched by the emptying network) are still localised
    -- and raises when the drain exceeds ``drain_limit``: two engines
    that wedge identically are stuck, not equivalent.

    Each cycle's state is compared by digest, every
    ``_SNAPSHOT_EVERY``-th and the last by full snapshot.  A mismatch
    repeats the run with snapshots every cycle after the last agreeing
    checkpoint (``_full_from``), so the reported cycle and diff are
    those of an every-cycle snapshot comparison (and raises if that
    repeat finds none: the digest reader is wrong, not the engines).

    ``inject(session, t)``, when given, runs right after the mix's own
    ``generate`` each cycle on both sessions -- the hook the targeted
    corpus uses to drive traffic the declarative mix cannot express
    (e.g. ``send_multicast`` with explicit target sets).  It MUST be
    deterministic in ``t`` alone, never in per-session state.
    """
    sessions = [SimulationSession(config.with_backend(name))
                for name in (backend_a, backend_b)]
    nets = [s.net for s in sessions]
    horizon = cycles if cycles is not None else config.spec.cycles
    good = -1       # last cycle whose full snapshots agreed
    try:
        for t in itertools.count():
            running = t < horizon or any(n.total_flits() for n in nets)
            if t and (not running or t > _full_from
                      or t % _SNAPSHOT_EVERY == 0):
                diffs = _diff_state(*(n.state_snapshot() for n in nets))
                if diffs:
                    break
                good = t - 1
            elif t and _digest(nets[0]) != _digest(nets[1]):
                break
            if not running:
                if _full_from < math.inf:
                    raise AssertionError(
                        "digests differed but no snapshot does: _digest / "
                        "ArrayBackend.state_digest misread the state")
                return None
            if t > horizon + drain_limit:
                raise RuntimeError(
                    f"lockstep failed to drain within {drain_limit} cycles; "
                    f"{nets[0].total_flits()} flits stuck (possible deadlock)")
            for s in sessions:
                if t < horizon:
                    # mirror SimulationSession.run(): fault events for
                    # cycle t land after step(t-1), before generate(t)
                    events = s._fault_cycles.get(t)
                    if events is not None:
                        s.backend.apply_faults(s._fs, events)
                    s.mix.generate(t)
                    if inject is not None:
                        inject(s, t)
                else:       # as Network.drain: the replies still owed
                    s.net.send_due(t)
                s.backend.step(t)
    finally:
        for s in sessions:
            s.backend.detach()
    if t > _full_from:      # cycle t - 1 was compared snapshot by snapshot
        return Divergence(backend_a, backend_b, t - 1, diffs,
                          faults=config.spec.faults)
    return find_divergence(config, backend_a, backend_b, cycles,
                           drain_limit, inject, _full_from=good + 1)


# ----------------------------------------------------------------------
# sharded-run divergence search
# ----------------------------------------------------------------------
def _shard_state(snap: Dict[str, object], plan,
                 w: int) -> Dict[str, object]:
    """Filter a :meth:`state_snapshot` down to shard ``w``'s owned
    routers.  Buffer and port keys both embed the node
    (``r{node}.{name}``); the global counters (cycle / flits_moved /
    deliveries) are dropped because each shard only counts local
    work."""
    owner = plan.node_owner

    def owned(key: str) -> bool:
        return owner[int(key[1:key.index(".")])] == w

    return {
        "buffers": {k: v for k, v in snap["buffers"].items()
                    if owned(k)},
        "ports": {k: v for k, v in snap["ports"].items() if owned(k)},
    }


def find_shard_divergence(config: RunConfig, shards: int,
                          cycles: Optional[int] = None
                          ) -> Optional[Divergence]:
    """Drive an in-process sharded run against a serial array run and
    return the first per-shard divergence.

    The sharded engine's core invariant is *post-apply equivalence*:
    once a shard has applied the halo records it received at wall cycle
    ``t``, its owned slice of network state equals the serial engine's
    state after stepping cycle ``t - 1`` (``src/repro/sim/README.md``).
    This harness checks exactly that, every cycle, for every shard --
    via the worker's ``on_applied`` debug seam -- so a halo-protocol
    bug is localised to one shard and one exchange (the returned
    :class:`Divergence` names the owning shard and the halo cycle)
    instead of surfacing as a slightly different end-of-run summary.
    """
    from repro.sim.shard.partition import make_plan
    from repro.sim.shard.transport import InprocTransport
    from repro.sim.shard.worker import ShardWorker

    config = config.with_backend("array")
    serial = SimulationSession(config)
    sessions = [SimulationSession(config) for _ in range(shards)]
    plan = make_plan(sessions[0].net, sessions[0].topo,
                     sessions[0].backend, shards)
    transport = InprocTransport(plan)
    workers = [ShardWorker(s, plan, w, transport, probes={})
               for w, s in enumerate(sessions)]
    horizon = min(cycles if cycles is not None else config.spec.cycles,
                  config.spec.cycles)
    label_b = f"array[shards={shards}]"
    serial_views: List[Dict[str, object]] = []
    found: List[Divergence] = []

    def check(worker: ShardWorker, t: int) -> None:
        if found:
            return
        view = _shard_state(worker.net.state_snapshot(), plan, worker.w)
        diffs = _diff_state(serial_views[worker.w], view)
        if diffs:
            found.append(Divergence(
                "array", label_b, t - 1, diffs,
                faults=config.spec.faults,
                shard=worker.w, halo_cycle=t))

    for wk in workers:
        wk.on_applied = check
    try:
        for t in range(horizon + 1):
            # serial is post-step(t - 1) here, which is what each
            # shard's post-apply state at wall cycle t must match
            snap = serial.net.state_snapshot()
            serial_views[:] = [_shard_state(snap, plan, w)
                               for w in range(shards)]
            if t < horizon:
                for wk in workers:
                    wk.do_cycle(t)      # fires on_applied post-apply
            else:
                # final halo: apply cycle horizon-1's cut flits
                # directly (finish() would also fire probes/profiler)
                for wk in workers:
                    wk._apply(transport.recv(wk.w, t))
                    check(wk, t)
            if found:
                return found[0]
            if t < horizon:
                serial.mix.generate(t)
                serial.backend.step(t)
    finally:
        serial.backend.detach()
        for s in sessions:
            s.backend.detach()
    return None


# ----------------------------------------------------------------------
# the generator: randomized configurations, each with a stress setting
# ----------------------------------------------------------------------
#: Sizes every topology accepts (quarc: n % 4 == 0, spidergon: even,
#: mesh/torus: rows * cols).  Non-power-of-two sizes are valid but
#: restrict the pattern choice (transpose / bit-complement need 2^k).
_FUZZ_SIZES = (8, 16)
_FUZZ_KINDS = ("quarc", "spidergon", "mesh", "torus")
_FUZZ_PATTERNS = ("uniform", "hotspot:node=1,p=0.3", "transpose",
                  "bit-complement", "neighbour", "permutation:seed=2")
_POW2_ONLY_PATTERNS = ("transpose", "bit-complement")
_FUZZ_ARRIVALS = ("bernoulli", "bursty:on=0.25,len=6",
                  "bursty:on=0.6,len=2")
#: fraction of cases that run a randomized multi-class workload
#: (``classes:`` spec) instead of the single-class axes
_FUZZ_MULTICLASS_P = 0.25
#: fraction of cases that carry a randomized fault plan (links /
#: routers dying mid-run): reroute, purge and drop accounting
_FUZZ_FAULT_P = 0.25
#: fraction of cases transformed into a reactive closed-loop workload
#: (request/reply windows or phased streams): the per-cycle reactive
#: path and the delivery feedback it depends on
_FUZZ_CLOSEDLOOP_P = 0.25
#: fraction of cases that sample probes and a latency histogram, so the
#: ``repro-metrics`` stream carries windows (a probe also ends the array
#: engine's windows at its cycles)
_FUZZ_OBS_P = 0.5
_FUZZ_PROBES = ("occupancy", "links", "rates", "inflight", "stalls")

#: The array engine's stress settings.  Each turns one of its sizes down
#: to where a rare path runs all the time; none changes what a run
#: computes, so the reference's summary is still the answer:
#:
#: * ``compact``: ``_COMPACT_MIN`` 0 and a sweep at every interning
#:   entry -- dead packet slots are freed while broadcast rows are open,
#:   relay segments staged, requests chained and replies due;
#: * ``stock``: ``_STOCK`` 8 -- a saturated queue's backlog waits as
#:   records and its packets run out every few, a refill mid-batch;
#: * ``evcap``: ``EV_PER_PORT`` 0 -- the event buffer starts at its
#:   256-event floor, so batches end ``events_full`` and it grows;
#: * ``window``: ``_SRC_WINDOW`` 4 -- a source queue's ring is a
#:   4-flit window, most of a queued packet waits in the pending FIFO;
#: * ``depth``: ``buffer_depth`` 1 or 2 in the spec (both engines);
#: * ``rescan``: the per-cycle run rescans every row before each kernel
#:   entry, so the batched run's ready set is checked against full scans.
STRESS = ("shipped", "compact", "stock", "evcap", "window", "depth",
          "rescan")


@contextlib.contextmanager
def stressed(stress: str, per_cycle: bool = False):
    """Every array session built inside runs under ``stress`` (one of
    :data:`STRESS`; ``rescan`` only with ``per_cycle``)."""
    from repro.sim import array_backend as ab
    engine = ab.ArrayBackend
    call = engine._call

    def rescanning(be, entry):
        be._st.rescan = 1
        return call(be, entry)

    patches = {
        "compact": [(ab, "_COMPACT_MIN", 0),
                    (engine, "_make_room",
                     lambda be, k: be._sweep(be._pslots.used))],
        "stock": [(ab, "_STOCK", 8)],
        "evcap": [(ab, "EV_PER_PORT", 0)],
        "window": [(ab, "_SRC_WINDOW", 4)],
        "rescan": [(engine, "_call", rescanning)] if per_cycle else [],
    }.get(stress, [])
    with contextlib.ExitStack() as stack:
        for owner, name, value in patches:
            stack.enter_context(mock.patch.object(owner, name, value))
        yield


class Case(NamedTuple):
    """One corpus case: the spec and the stress setting it runs under; a
    hand-aimed case may add traffic no spec says (``inject``, a
    :func:`multicast_burst_inject` hook) or a closed loop no registered
    workload builds (``workload``, run through :func:`custom_workload`)."""

    name: str
    config: RunConfig
    stress: str = "shipped"
    inject: Optional[Callable] = None
    workload: Optional[object] = None


def _random_classes_spec(rng: random.Random, n: int) -> str:
    """A randomized ``classes:`` workload spec: 2-3 classes mixing
    casts, sizes, patterns and arrival models."""
    chunks = []
    for j in range(rng.choice((2, 2, 3))):
        rate = round(10 ** rng.uniform(-3.2, -1.3), 5)
        length = rng.choice((1, 2, 4, 9))
        if rng.random() < 0.35:
            head = "broadcast"
        else:
            head = rng.choice(_FUZZ_PATTERNS)
            if n & (n - 1) and head in _POW2_ONLY_PATTERNS:
                head = "uniform"
        chunk = f"c{j}={head},rate={rate},len={length}"
        if rng.random() < 0.4:
            chunk += ",arrival=bursty:on=0.3,len=6"
        chunks.append(chunk)
    return "classes:" + ";".join(chunks)


def _random_closedloop_spec(rng: random.Random) -> str:
    """A randomized closed-loop app-model spec: coherence request/reply
    windows (think rate 1: no coin drawn; 1e-5: nearly every coin
    misses; 0.3 with few writes: a fired request, an invalidation and a
    reply share a source queue) or phased all-reduce iterations."""
    if rng.random() < 0.5:
        storms = "true" if rng.random() < 0.5 else "false"
        return (f"cache_coherence:storms={storms},"
                f"window={rng.randrange(2, 7)},"
                f"service={rng.choice((0, 4, 12))},"
                f"local={rng.choice((0.0, 0.5, 0.9))}"
                + rng.choice(("", ",read_rate=1.0", ",read_rate=1e-5",
                              ",read_rate=0.3,write_rate=0.005")))
    return (f"allreduce:window={rng.randrange(2, 5)},"
            f"quota={rng.randrange(4, 9)},"
            f"gap={rng.choice((10, 25, 40))}")


def _random_fault_plan(rng: random.Random, n: int, cycles: int) -> str:
    """A randomized 1-2 clause fault plan landing inside the horizon."""
    clauses = []
    for _ in range(rng.choice((1, 1, 2))):
        cycle = rng.randrange(0, max(cycles - 100, 1))
        # only the topology-agnostic kinds: an explicit `link:` clause
        # needs an edge that exists, which depends on the drawn kind
        # (explicit-link plans are covered by the golden fixtures)
        kind = rng.choice(("links", "links", "router", "routers"))
        if kind == "links":
            clauses.append(f"links:down={rng.randrange(1, 4)}"
                           f"@cycle={cycle}")
        elif kind == "routers":
            clauses.append(f"routers:down={rng.randrange(1, 3)}"
                           f"@cycle={cycle}")
        else:
            clauses.append(f"router:node={rng.randrange(n)}"
                           f"@cycle={cycle}")
    return ";".join(clauses)


def random_case(seed: int, index: int, cycles: int = 700,
                warmup: int = 150,
                sizes: Sequence[int] = _FUZZ_SIZES) -> Case:
    """Case ``index`` of stream ``seed``: a function of its arguments
    alone, so one case can be pinned without the ones before it.

    Case ``i`` takes pair ``i`` of the (topology, stress setting) grid,
    the stress setting varying fastest, so any ``4 * len(STRESS)``
    consecutive cases run every setting on every topology; the rest is
    drawn.  The rate is log-uniform from deep idle to past saturation
    (fast-forward and full-network arbitration are different code).
    About a quarter of the cases run a randomized multi-class workload,
    a quarter carry a fault plan, a quarter become a reactive closed
    loop (which clears the fault plan: a rejected axis pair), and half
    sample probes."""
    from dataclasses import replace

    from repro.obs import ObsSpec, ProbeSpec
    rng = random.Random(f"{seed}:{index}")
    stress = STRESS[index % len(STRESS)]
    kind = _FUZZ_KINDS[index // len(STRESS) % len(_FUZZ_KINDS)]
    n = rng.choice(list(sizes))
    extra = dict(
        buffer_depth=rng.choice((1, 2)) if stress == "depth" else 4,
        faults=(_random_fault_plan(rng, n, cycles)
                if rng.random() < _FUZZ_FAULT_P else ""),
        seed=rng.randrange(1, 10_000), cycles=cycles, warmup=warmup)
    if kind == "quarc" and rng.random() < 0.2:
        extra["bcast_mode"] = "relay"
    if rng.random() < _FUZZ_OBS_P:
        window = rng.choice((64, 150))
        extra["obs"] = ObsSpec(probes=tuple(
            ProbeSpec(name, window=window) for name in _FUZZ_PROBES),
            latency_hist=True)
    if rng.random() < _FUZZ_MULTICLASS_P:
        cfg = make_config(kind=kind, n=n, msg_len=4, beta=0.0,
                          rate=rng.choice((0.5, 1.0, 2.0, 8.0)),
                          workload=_random_classes_spec(rng, n), **extra)
    else:
        pattern = rng.choice(_FUZZ_PATTERNS)
        if n & (n - 1) and pattern in _POW2_ONLY_PATTERNS:
            pattern = "uniform"
        cfg = make_config(kind=kind, n=n,
                          msg_len=rng.choice((1, 2, 4, 9, 16)),
                          beta=rng.choice((0.0, 0.05, 0.3)),
                          rate=round(10 ** rng.uniform(-3.2, -0.3), 5),
                          pattern=pattern,
                          arrival=rng.choice(_FUZZ_ARRIVALS), **extra)
    if rng.random() < _FUZZ_CLOSEDLOOP_P:
        # the single-class axes back to their defaults; kind, size,
        # horizon, seed and the ablation switch survive
        cfg = replace(cfg, spec=replace(
            cfg.spec, workload=_random_closedloop_spec(rng),
            rate=rng.choice((0.5, 1.0, 2.0)), pattern="uniform",
            arrival="bernoulli", faults=""))
    return Case(f"{seed}-{index}-{kind}-{stress}", cfg, stress)


def random_configs(seed: int, count: int, **kw) -> Iterator[Case]:
    """Cases ``0 .. count - 1`` of stream ``seed`` (:func:`random_case`;
    ``kw`` its horizon and sizes)."""
    return (random_case(seed, i, **kw) for i in range(count))


# ----------------------------------------------------------------------
# hand-aimed cases: traffic the generator cannot draw or rarely does
# ----------------------------------------------------------------------
def multicast_burst_inject(seed: int, every: int = 25, width: int = 3,
                           size: int = 3):
    """An ``inject(session, t)`` hook that fires dense multicast bursts:
    every ``every`` cycles (``inject.every``), ``width`` nodes each issue
    ``send_multicast`` to a random target set in the same cycle.

    Deterministic in ``(seed, t)`` only, so every session sees
    byte-identical traffic.  Multicasts are the one cast the
    declarative mix cannot express (explicit target sets -> the Quarc
    bitstring path; serialised unicast fan-out everywhere else), so the
    generator never draws them.
    """
    def inject(session, t: int) -> None:
        if t % every:
            return
        n = session.net.n
        rng = random.Random((seed << 24) ^ t)
        for _ in range(width):
            src = rng.randrange(n)
            k = rng.randrange(2, max(3, n // 2))
            targets = rng.sample([d for d in range(n) if d != src], k)
            session.net.adapters[src].send_multicast(targets, size, t)
    inject.every = every
    return inject


def named_cases() -> List[Case]:
    """Hand-aimed cases, each under a chosen stress setting: dense
    multicast bursts (bitstring absorption on the Quarc, serialised
    fan-out elsewhere), dateline-heavy tori (every wrap crossing
    re-routes the packet's VC class mid-flight), deep source queues, the
    closed loops' corners (:data:`CLOSED_LOOP_CASES`,
    :data:`CUSTOM_CLOSED_LOOPS`) and configs that once caught an engine
    bug."""
    cases = [
        Case("quarc_multicast_bursts", make_config(
            kind="quarc", n=16, msg_len=4, beta=0.05, rate=0.02,
            cycles=800, warmup=150, seed=31), "compact",
            multicast_burst_inject(31, every=20, width=4, size=4)),
        Case("mesh_multicast_bursts", make_config(
            kind="mesh", n=16, msg_len=4, beta=0.0, rate=0.02, cycles=800,
            warmup=150, seed=33), "shipped",
            multicast_burst_inject(33, every=25, width=3, size=3)),
        # hotspot at a corner of the 4x4 torus: shortest-direction
        # routing drags half the traffic across the wrap links, so
        # dateline VC upgrades fire constantly under backpressure
        Case("torus_dateline_hotspot", make_config(
            kind="torus", n=16, msg_len=9, beta=0.0, rate=0.12, cycles=900,
            warmup=200, seed=37, pattern="hotspot:node=0,p=0.5"), "stock"),
        # every -1-neighbour message from row/col 0 crosses a dateline;
        # bursty arrivals pile messages up behind the wrap links
        Case("torus_dateline_neighbour", make_config(
            kind="torus", n=16, msg_len=6, beta=0.0, rate=0.15, cycles=900,
            warmup=200, seed=41, pattern="neighbour:offset=-1",
            arrival="bursty:on=0.3,len=8"), "shipped"),
        # a blocked post-turn header whose requested VC is re-raised by
        # trailing flits crossing the X dateline (6x6 torus)
        Case("torus36_dateline_vclass", make_config(
            kind="torus", n=36, msg_len=6, beta=0.05, rate=0.15,
            cycles=900, warmup=200, seed=23), "shipped"),
        # packets four times a source queue's ring window: a queued
        # packet is mostly in the pending FIFO, a cut one at its head
        Case("quarc_deep_source_queues", make_config(
            kind="quarc", n=16, msg_len=64, beta=0.05, rate=0.02,
            cycles=300, warmup=100, seed=43), "shipped"),
        # relay broadcasts: adapter pushes during commit
        Case("quarc_relay_reinjection", make_config(
            kind="quarc", n=8, msg_len=4, beta=0.3, rate=0.03, cycles=1500,
            warmup=300, seed=5, bcast_mode="relay"), "compact"),
    ]
    cases += [Case(f"closed_{name}", make_config(**cfg), "shipped")
              for name, cfg in CLOSED_LOOP_CASES.items()]
    cases += [Case(f"custom_{name}", make_config(
        kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0, cycles=900,
        warmup=200, seed=5, workload="cache_coherence:window=4"),
        "shipped", workload=workload)
        for name, workload in CUSTOM_CLOSED_LOOPS.items()]
    return cases


#: Closed loops whose corners the engine's reactive windows must keep:
#: a reply due the cycle after its request's tail (``service=0``); relay
#: segments regenerated and replies due in one cycle at one node
#: (Spidergon storms), in one source queue (Quarc relay broadcasts): the
#: fold order; the barrier's completion and the phase restart, each
#: ending a window (``allreduce``).
CLOSED_LOOP_CASES = {
    "service0": dict(kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0,
                     cycles=900, warmup=200, seed=5,
                     workload="cache_coherence:window=4,service=0"),
    "spidergon_storms": dict(
        kind="spidergon", n=16, msg_len=4, beta=0.0, rate=1.0, cycles=900,
        warmup=200, seed=5, workload="cache_coherence:storms=true,window=4"),
    "quarc_relay_storms": dict(
        kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0, cycles=900,
        warmup=200, seed=5, bcast_mode="relay",
        workload="cache_coherence:storms=true,window=4,service=0"),
    "allreduce": dict(kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0,
                      cycles=1500, warmup=200, seed=5,
                      workload="allreduce:window=4,quota=12,gap=48"),
    # a fill request fired by the kernel, an invalidation broadcast and
    # a reply due, from one node in one cycle in one source queue (node
    # 6's loc.l at cycle 6) ...
    "dense": dict(kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0,
                  cycles=900, warmup=200, seed=5,
                  workload="cache_coherence:window=4,service=0,"
                           "read_rate=0.3,write_rate=0.005"),
    # ... with warmup at that cycle: the first batch books tails created
    # on both sides of it, those three measured
    "dense_warmup": dict(kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0,
                         cycles=900, warmup=6, seed=5,
                         workload="cache_coherence:window=4,service=0,"
                                  "read_rate=0.3,write_rate=0.005"),
    # think rate 1: no coin is drawn; 1e-5: nearly every coin misses and
    # sources wait for the next block (one block end is crossed)
    "think1": dict(kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0,
                   cycles=900, warmup=200, seed=5,
                   workload="cache_coherence:window=2,read_rate=1.0"),
    "think1e-5": dict(kind="quarc", n=16, msg_len=4, beta=0.0, rate=1.0,
                      cycles=2600, warmup=200, seed=5,
                      workload="cache_coherence:window=4,read_rate=1e-5"),
}


def _custom_closed_loops():
    from repro.traffic.mix import TrafficClass
    from repro.workloads.closedloop import (MODE_REQREPLY, MODE_STREAM,
                                            ClosedLoopClass,
                                            ClosedLoopWorkload)
    fill = TrafficClass("fill", rate=0.3, msg_len=4,
                        pattern="directory:quadrants=4,local=0.6",
                        arrival="closedloop:window=4")
    inv = TrafficClass("inv", rate=0.01, msg_len=2, cast="broadcast")
    stream = TrafficClass("scatter", rate=0.5, msg_len=4,
                          pattern="neighbour:offset=1",
                          arrival="closedloop:window=2")
    noise = TrafficClass("noise", rate=0.05, msg_len=3)
    barrier = TrafficClass("barrier", rate=0.0, msg_len=2,
                           cast="broadcast")
    return {
        # the coherence mix with its class order reversed: a broadcast
        # of class 0 folds ahead of a fired request of class 1
        "reversed": ClosedLoopWorkload(
            classes=(inv, fill),
            closed=(ClosedLoopClass("fill", mode=MODE_REQREPLY,
                                    service=0),)),
        # a phased stream beside open-loop unicasts: the windows a phase
        # ends leave rows waiting, which the next window's merge
        "phased_noise": ClosedLoopWorkload(
            classes=(stream, noise, barrier),
            closed=(ClosedLoopClass("scatter", mode=MODE_STREAM,
                                    quota=6),),
            barrier="barrier", gap=16),
    }


#: Closed loops no registered workload builds, run under any workload
#: spec through :func:`custom_workload`.
CUSTOM_CLOSED_LOOPS = _custom_closed_loops()


@contextlib.contextmanager
def custom_workload(workload):
    """Every session built inside runs ``workload`` (a
    ``ClosedLoopWorkload``) in place of its spec's workload."""
    from repro.workloads import registry
    with mock.patch.object(registry, "resolve_workload",
                           lambda spec, n: workload):
        yield


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def named_events(be, events) -> np.ndarray:
    """``events`` (an array engine's replayed words: key, word, ...) as a
    row each: the key, then the word with every aid and receipt slot --
    an interning order, which batching changes -- replaced by what it
    names, read off the packet columns (so naming builds no object): a
    flit by its packet's (src, dst, size, traffic, born) and its port or
    index, a completion by its op's (src, created), a reply by (src,
    dst, tag), a fired request by (src, dst, source)."""
    from repro.sim.array_backend import (EV_COMPLETE, EV_CONT, EV_DATELINE,
                                         EV_DELIVERY, FIDMASK, FSHIFT,
                                         SRC_BITS)
    keys, words = events[::2], events[1::2]
    kind = keys & 7
    out = np.zeros((len(keys), 7), np.int64)
    out[:, 0], out[:, 1] = keys, words      # no aid in the word
    flit = np.flatnonzero((kind == EV_DELIVERY) | (kind == EV_DATELINE))
    if len(flit):
        w, dl = words[flit], kind[flit] == EV_DELIVERY
        aid = np.where(dl, w >> 16, w >> FSHIFT)
        out[flit, 1:] = np.column_stack((
            be._psrc[aid], be._pdst[aid], be._psize[aid], be._ptraf[aid],
            be._pborn[aid], np.where(dl, w & 0xFFFF, w & FIDMASK)))
    for i in np.flatnonzero(kind >= EV_COMPLETE).tolist():
        word = int(words[i])
        if kind[i] == EV_COMPLETE:
            op = be._slot_op[word]      # an op, or a broadcast row's
            out[i, 1:3] = ((be._psrc[op[0][0]], be._pborn[op[0][0]])
                           if type(op) is tuple else (op.src, op.created))
        elif kind[i] == EV_CONT:
            tag = be._tag(word)
            out[i, 1:5] = (be._psrc[word], be._pdst[word],
                           *((-1, -1) if tag is None else
                             (tag, -1) if type(tag) is int else tag))
        else:                           # EV_FIRE
            aid = word >> SRC_BITS
            out[i, 1:4] = (be._psrc[aid], be._pdst[aid],
                           word & ((1 << SRC_BITS) - 1))
    return out


class EventLog:
    """Named replayed events (:func:`named_events`) folded into a digest
    as they replay, in memory that does not grow with the run (a
    saturated N = 64 run replays millions): equal logs saw the same
    events in the same order.  Also notes whether the events came in
    cycle order and how many of each kind came."""

    def __init__(self):
        self._hash = hashlib.blake2b()
        self.n, self.last, self.ordered = 0, -1, True
        self.kinds = collections.Counter()

    def extend(self, rows: np.ndarray) -> None:
        if len(rows):
            cycles = rows[:, 0] >> 3
            self.ordered &= bool(cycles[0] >= self.last
                                 and (cycles[1:] >= cycles[:-1]).all())
            self.last = int(cycles[-1])
            self.kinds.update((rows[:, 0] & 7).tolist())
            self._hash.update(rows.tobytes())
            self.n += len(rows)

    def __eq__(self, other) -> bool:
        return (self.n, self._hash.digest()) == (other.n,
                                                 other._hash.digest())


class Drive(NamedTuple):
    """What :func:`drive` saw of one run."""

    summary: RunSummary
    events: EventLog    # named replayed events (``trace``)
    digests: list       # state digests (``_digest``), either engine
    snaps: list         # ``(state_snapshot, total_flits)`` at ``snap_at``
    balance: int        # injected - ejected - purged - in flight, at end
    session: SimulationSession


def drive(config: RunConfig, backend: str = "array", per_cycle=False,
          trace=False, snap_at=(), hook_at=None, before=None,
          digest_every=0, inject=None) -> Drive:
    """Run ``config`` on ``backend``: the summary, the replayed events
    (``trace``, an :class:`EventLog`), the state digests (every
    ``digest_every`` cycles, then at the end) and ``(snapshot,
    total_flits)`` at each cycle of ``snap_at``.  ``per_cycle`` drives
    the array engine through ``generate`` + ``step`` (horizon 1,
    :func:`helpers.run_per_cycle`) instead of the windowed ``run_mix``;
    ``hook_at = (cycle, fn)`` calls ``fn(backend)`` after that cycle,
    ``before(session)`` runs ahead of the first one; ``inject``
    (:func:`multicast_burst_inject`) sends its traffic of cycle ``t``
    once cycle ``t - 1`` has run, ahead of the arrivals of ``t``."""
    from helpers import run_per_cycle

    from repro.sim.array_backend import EV_CONT, EV_FIRE
    from repro.sim.session import _merge_probes
    session = SimulationSession(config.with_backend(backend))
    be, net = session.backend, session.net
    cycles = config.spec.cycles
    events, snaps, digests = EventLog(), [], []
    if before is not None:
        before(session)
    if trace:
        be._st.trace = 1
        replay = be._replay

        def named(evs):
            # each named before it replays, and after every CONT or FIRE
            # before it has (the packet either names gets its birth
            # cycle as it replays)
            kinds = evs[::2] & 7
            cut = (np.flatnonzero((kinds == EV_CONT) | (kinds == EV_FIRE))
                   + 1) * 2
            for part in np.split(evs, cut):
                if len(part):
                    events.extend(named_events(be, part))
                    replay(part)

        be._replay = named
    probes = session._probe_schedule()
    if inject is not None:
        inject(session, 0)
        _merge_probes(probes, {
            t - 1: lambda now: inject(session, now + 1)
            for t in range(inject.every, cycles, inject.every)})
    _merge_probes(probes, {
        t: lambda now: snaps.append((net.state_snapshot(),
                                     net.total_flits()))
        for t in snap_at})
    if hook_at is not None:
        _merge_probes(probes, {hook_at[0]: lambda now: hook_at[1](be)})
    if digest_every:
        _merge_probes(probes, {
            t: lambda now: digests.append(_digest(net))
            for t in range(digest_every, cycles, digest_every)})
    run_mix = run_per_cycle if per_cycle else type(be).run_mix
    run_mix(be, session.mix, cycles, probes)
    digests.append(_digest(net))
    summary = session.summary()
    balance = be._flit_balance()
    be.detach()
    return Drive(summary, events, digests, snaps, balance, session)


#: Cycles between the oracle's state checkpoints.
CHECK_EVERY = 100


def check_case(case: Case) -> List[Drive]:
    """The oracle every equivalence case runs: ``case.config`` on the
    reference and three times on the array engine under ``case.stress``:
    as a session runs it (windows), the same with its events traced, and
    traced one cycle at a time (under ``rescan``: with a full rescan
    before every kernel entry).

    * Every array run gives the reference's ``RunSummary``, the session
      run its ``repro-metrics`` stream too; a session run that differs
      is localised by a lockstep re-run (:func:`find_divergence`)
      before the test fails.
    * The traced runs replay the same events (as an :class:`EventLog`;
      none only where no flit moved) in cycle order: one entry of K
      cycles is K entries of one (and, under ``rescan``, the ready set
      the windows keep misses no row a full scan finds).  Their network
      state (:func:`_digest`) is the reference's every
      :data:`CHECK_EVERY` cycles and at the end.  Trace events and
      checkpoints end batches, hence the untraced session run.
    * Every run keeps the flit identity (injected == ejected + purged +
      in flight); every header routed in Python wakes its own row; a
      fault-free run routes no header in Python but a multicast's.

    Returns the four runs: reference, session, traced, per-cycle."""
    from repro.obs.metrics import dumps_stream
    from repro.sim.array_backend import EV_ROUTE, ArrayBackend
    config, stress, inject = case.config, case.stress, case.inject
    route, woken = ArrayBackend._route_one, []

    def routed(be, b):
        route(be, b)
        woken.append(int(be._rdy[b >> 6]) >> (b & 63) & 1)

    label = f"{case.name}: {config.spec.label()} (seed {config.spec.seed})"
    with contextlib.ExitStack() as stack:
        if case.workload is not None:
            stack.enter_context(custom_workload(case.workload))
        ref = drive(config, "reference", inject=inject,
                    digest_every=CHECK_EVERY)
        with stressed(stress):
            plain = drive(config, inject=inject)
            if plain.summary != ref.summary:
                div = find_divergence(config, "reference", "array",
                                      inject=inject)
                raise AssertionError(
                    f"array diverges from reference for {label}:\n" + (
                        div.report() if div is not None else
                        "summaries differ but lockstep stepping agrees -- "
                        "suspect run_mix windows or drain handling"))
            with mock.patch.object(ArrayBackend, "_route_one", routed):
                batched = drive(config, trace=True, inject=inject,
                                digest_every=CHECK_EVERY)
        with stressed(stress, per_cycle=True):
            stepped = drive(config, per_cycle=True, trace=True,
                            inject=inject, digest_every=CHECK_EVERY)
    if config.obs and config.obs.probes:
        assert dumps_stream(plain.summary) == dumps_stream(ref.summary), label
    assert batched.summary == stepped.summary == ref.summary, label
    assert batched.events == stepped.events, label
    assert batched.digests == stepped.digests == ref.digests, label
    assert batched.events.ordered, label
    assert batched.events.n or not ref.summary.flits_moved, label
    assert all(woken), label
    if not config.spec.faults and inject is None:
        assert EV_ROUTE not in batched.events.kinds, label
    runs = [ref, plain, batched, stepped]
    assert [run.balance for run in runs] == [0] * 4, label
    return runs
