"""Reusable differential-testing harness for simulation backends.

The equivalence contract (``RunSummary`` equality between backends) is
easy to *assert* but painful to *debug*: a single mis-arbitrated flit
thousands of cycles into a run surfaces only as a slightly different
latency mean.  This harness closes that gap:

* :func:`run_summaries` -- run one config through several backends and
  return the summaries (the assertion side).
* :func:`find_divergence` -- drive two backends **in lockstep**, one
  cycle at a time, comparing network state after every cycle; returns
  a :class:`Divergence` naming the first cycle where the full state
  snapshots (:meth:`~repro.noc.network.Network.state_snapshot`: every
  buffer's flit queue and switching table, every port's round-robin
  pointer, VC owner table and flit counter) disagree, with a per-key
  state diff (the debugging side).
* :func:`random_configs` -- a deterministic stream of randomized
  (topology, size, pattern, arrival, rate, msg_len, beta, seed)
  configurations for fuzzing (``tests/test_differential.py``).

Typical debugging session (see also ``src/repro/sim/README.md``)::

    from differential import find_divergence, make_config
    cfg = make_config(kind="torus", n=36, rate=0.15, seed=23)
    div = find_divergence(cfg, "reference", "array")
    print(div.report())     # first diverging cycle + state diff

Note the lockstep driver injects traffic cycle-by-cycle through
``TrafficMix.generate`` on both sessions, so backend-specific
``run_mix`` fast-forwarding is *not* exercised here -- use
:func:`run_summaries` for the end-to-end contract and
:func:`find_divergence` to localise a step-kernel bug.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

from repro.noc.network import flit_key
from repro.sim.backend import BACKENDS
from repro.sim.records import RunSummary
from repro.sim.session import RunConfig, SimulationSession
from repro.traffic.workload import WorkloadSpec

__all__ = ["Divergence", "make_config", "run_summaries", "find_divergence",
           "find_shard_divergence", "random_configs",
           "assert_backends_equivalent", "multicast_burst_inject",
           "targeted_configs", "CLOSED_LOOP_CASES", "CUSTOM_CLOSED_LOOPS",
           "custom_workload"]


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
# randomized configuration stream
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
#: fraction of fuzz cases that run a randomized multi-class workload
#: (``classes:`` spec) instead of the single-class axes
_FUZZ_MULTICLASS_P = 0.25
#: fraction of fuzz cases that carry a randomized fault plan (links /
#: routers dying mid-run), exercising reroute, purge and drop
#: accounting on every backend
_FUZZ_FAULT_P = 0.25
#: fraction of fuzz cases transformed into a reactive closed-loop
#: workload (request/reply windows or phased streams), exercising the
#: per-cycle reactive path -- and the delivery-feedback determinism it
#: depends on -- in every backend
_FUZZ_CLOSEDLOOP_P = 0.25


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


def _random_closedloop_spec(crng: random.Random) -> str:
    """A randomized closed-loop app-model spec (coherence request/reply
    windows or phased all-reduce iterations)."""
    if crng.random() < 0.5:
        storms = "true" if crng.random() < 0.5 else "false"
        return (f"cache_coherence:storms={storms},"
                f"window={crng.randrange(2, 7)},"
                f"service={crng.choice((0, 4, 12))},"
                f"local={crng.choice((0.0, 0.5, 0.9))}")
    return (f"allreduce:window={crng.randrange(2, 5)},"
            f"quota={crng.randrange(4, 9)},"
            f"gap={crng.choice((10, 25, 40))}")


def _closedloop_variant(cfg: RunConfig, crng: random.Random) -> RunConfig:
    """Transform a drawn fuzz case into a reactive closed-loop one.

    Faults are cleared (closed-loop x faults is a rejected axis
    combination) and the single-class axes reset to their defaults; the
    drawn kind / size / horizon / seed / ablation switches survive, so
    the closed-loop corpus spans the same topology space as the open
    one."""
    from dataclasses import replace
    spec = replace(cfg.spec,
                   workload=_random_closedloop_spec(crng),
                   rate=crng.choice((0.5, 1.0, 2.0)),
                   pattern="uniform", arrival="bernoulli", faults="")
    return replace(cfg, spec=spec)


def _random_fault_plan(frng: random.Random, n: int, cycles: int) -> str:
    """A randomized 1-2 clause fault plan landing inside the horizon."""
    clauses = []
    for _ in range(frng.choice((1, 1, 2))):
        cycle = frng.randrange(0, max(cycles - 100, 1))
        # only the topology-agnostic kinds: an explicit `link:` clause
        # needs an edge that exists, which depends on the drawn kind
        # (explicit-link plans are covered by the golden fixtures)
        kind = frng.choice(("links", "links", "router", "routers"))
        if kind == "links":
            clauses.append(f"links:down={frng.randrange(1, 4)}"
                           f"@cycle={cycle}")
        elif kind == "routers":
            clauses.append(f"routers:down={frng.randrange(1, 3)}"
                           f"@cycle={cycle}")
        else:
            clauses.append(f"router:node={frng.randrange(n)}"
                           f"@cycle={cycle}")
    return ";".join(clauses)


def random_configs(seed: int, count: int,
                   cycles: int = 700, warmup: int = 150,
                   sizes: Sequence[int] = _FUZZ_SIZES,
                   ) -> Iterator[Tuple[int, RunConfig]]:
    """Yield ``count`` deterministic pseudo-random configs as
    ``(case_index, RunConfig)`` pairs.

    The rate axis is sampled log-uniformly from deep-idle to past
    saturation, because the two regimes exercise entirely different
    backend code paths (fast-forward vs full-network arbitration).
    About a quarter of the cases run a randomized **multi-class**
    workload instead (mixed casts / sizes / arrivals per class), so the
    per-class accounting and varying message lengths hit every backend.
    Independently, about a quarter carry a randomized **fault plan**
    (links / routers dying mid-run); the fault draw uses a per-case rng
    so the fault-free corpus is byte-identical to the historical one.
    Finally, about a quarter are transformed into reactive
    **closed-loop** workloads (coherence request/reply windows or
    phased all-reduce iterations) -- again via a per-case rng, so every
    untransformed case matches its historical twin exactly.
    """
    rng = random.Random(seed)
    for i in range(count):
        kind = rng.choice(_FUZZ_KINDS)
        n = rng.choice(list(sizes))
        rate = 10 ** rng.uniform(-3.2, -0.3)
        beta = rng.choice((0.0, 0.05, 0.3))
        if kind == "quarc" and rng.random() < 0.2:
            cfg_extra = dict(bcast_mode="relay")
        else:
            cfg_extra = {}
        frng = random.Random(f"faults:{seed}:{i}")
        faults = (_random_fault_plan(frng, n, cycles)
                  if frng.random() < _FUZZ_FAULT_P else "")
        if rng.random() < _FUZZ_MULTICLASS_P:
            cfg = make_config(
                kind=kind, n=n, msg_len=4, beta=0.0,
                rate=round(rng.choice((0.5, 1.0, 2.0, 8.0)), 5),
                cycles=cycles, warmup=warmup,
                seed=rng.randrange(1, 10_000),
                workload=_random_classes_spec(rng, n),
                faults=faults, **cfg_extra)
        else:
            pattern = rng.choice(_FUZZ_PATTERNS)
            if n & (n - 1) and pattern in _POW2_ONLY_PATTERNS:
                pattern = "uniform"
            cfg = make_config(
                kind=kind, n=n,
                msg_len=rng.choice((1, 2, 4, 9, 16)),
                beta=beta,
                rate=round(rate, 5),
                cycles=cycles, warmup=warmup,
                seed=rng.randrange(1, 10_000),
                pattern=pattern,
                arrival=rng.choice(_FUZZ_ARRIVALS),
                faults=faults, **cfg_extra)
        # the closed-loop transform draws from a per-case rng so the
        # untransformed corpus stays byte-identical to the historical
        # one (same shared-rng consumption in every branch above)
        crng = random.Random(f"closed:{seed}:{i}")
        if crng.random() < _FUZZ_CLOSEDLOOP_P:
            cfg = _closedloop_variant(cfg, crng)
        yield i, cfg


# ----------------------------------------------------------------------
# targeted corpus: traffic shapes the randomized stream under-samples
# ----------------------------------------------------------------------
def multicast_burst_inject(seed: int, every: int = 25, width: int = 3,
                           size: int = 3):
    """An ``inject`` hook for :func:`find_divergence` that fires dense
    multicast bursts: every ``every`` cycles, ``width`` nodes each issue
    ``send_multicast`` to a random target set in the same cycle.

    Deterministic in ``(seed, t)`` only, so both lockstep sessions see
    byte-identical traffic.  Multicasts are the one cast the
    declarative mix cannot express (explicit target sets -> the Quarc
    bitstring path; serialised unicast fan-out everywhere else), so the
    randomized corpus never exercises them without this hook.
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
    return inject


def targeted_configs() -> List[Tuple[str, RunConfig, Optional[object]]]:
    """Hand-aimed ``(name, config, inject)`` cases for regimes the
    random stream under-samples: dense multicast bursts (bitstring
    absorption on the Quarc, serialised fan-out elsewhere) and
    dateline-heavy torus traffic (every wrap crossing re-routes the
    packet's VC class mid-flight)."""
    cases: List[Tuple[str, RunConfig, Optional[object]]] = [
        ("quarc_multicast_bursts",
         make_config(kind="quarc", n=16, msg_len=4, beta=0.05, rate=0.02,
                     cycles=800, warmup=150, seed=31),
         multicast_burst_inject(31, every=20, width=4, size=4)),
        ("mesh_multicast_bursts",
         make_config(kind="mesh", n=16, msg_len=4, beta=0.0, rate=0.02,
                     cycles=800, warmup=150, seed=33),
         multicast_burst_inject(33, every=25, width=3, size=3)),
        # hotspot at a corner of the 4x4 torus: shortest-direction
        # routing drags half the traffic across the wrap links, so
        # dateline VC upgrades fire constantly under backpressure
        ("torus_dateline_hotspot",
         make_config(kind="torus", n=16, msg_len=9, beta=0.0, rate=0.12,
                     cycles=900, warmup=200, seed=37,
                     pattern="hotspot:node=0,p=0.5"), None),
        # every -1-neighbour message from row/col 0 crosses a dateline;
        # bursty arrivals pile messages up behind the wrap links
        ("torus_dateline_neighbour",
         make_config(kind="torus", n=16, msg_len=6, beta=0.0, rate=0.15,
                     cycles=900, warmup=200, seed=41,
                     pattern="neighbour:offset=-1",
                     arrival="bursty:on=0.3,len=8"), None),
        # packets four times a source queue's ring window: a queued
        # packet is mostly in the pending FIFO, a cut one at its head
        ("quarc_deep_source_queues",
         make_config(kind="quarc", n=16, msg_len=64, beta=0.05, rate=0.02,
                     cycles=300, warmup=100, seed=43), None),
    ]
    cases += [(f"closed_{name}", make_config(**cfg), None)
              for name, cfg in CLOSED_LOOP_CASES.items()]
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


def assert_backends_equivalent(config: RunConfig,
                               backends: Optional[Sequence[str]] = None,
                               ) -> List[RunSummary]:
    """Assert all ``backends`` (default: every registered one) produce
    identical summaries for ``config``; on mismatch, re-run the failing
    pair in lockstep and raise with the first diverging cycle's diff."""
    names = list(backends if backends is not None else sorted(BACKENDS))
    summaries = run_summaries(config, names)
    baseline = summaries[0]
    for name, summary in zip(names[1:], summaries[1:]):
        if summary != baseline:
            div = find_divergence(config, names[0], name)
            detail = div.report() if div is not None else (
                "summaries differ but lockstep stepping agrees -- "
                "suspect run_mix fast-forward or drain handling")
            raise AssertionError(
                f"backend {name!r} diverges from {names[0]!r} for "
                f"{config.spec.label()} (seed {config.spec.seed}):\n{detail}")
    return summaries
