"""The single entry point for running simulations.

A :class:`RunConfig` bundles *everything* one simulation point needs --
the declarative :class:`~repro.traffic.workload.WorkloadSpec`, the
backend name, and the network ablation switches.  A
:class:`SimulationSession` turns a config into a wired network + traffic
mix + collector, runs it to the horizon under the selected backend, and
emits the :class:`~repro.sim.records.RunSummary` every figure, benchmark
and CLI command consumes.

Before this layer existed the build/drive/summarise pipeline was
duplicated (with slight drift) across ``cli.py``, ``experiments/latency``,
``experiments/sweep`` and the benchmarks; they now all call through here,
which is also the seam future scaling work (sharding, batching, compiled
kernels) plugs into: a new engine only has to implement the
:class:`~repro.sim.backend.SimBackend` protocol to serve every consumer.

>>> from repro.sim.session import RunConfig, SimulationSession
>>> from repro.traffic.workload import WorkloadSpec
>>> spec = WorkloadSpec(kind="quarc", n=8, msg_len=4, beta=0.0,
...                     rate=0.01, cycles=600, warmup=100, seed=3)
>>> summary = SimulationSession(RunConfig(spec=spec)).run()
>>> summary.noc
'quarc'
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.obs import ObsSpec
from repro.sim.backend import (BACKENDS, DEFAULT_BACKEND, SimBackend,
                               make_backend)
from repro.sim.records import RunSummary
from repro.traffic.workload import WorkloadSpec

__all__ = ["RunConfig", "SimulationSession"]


@dataclass(frozen=True)
class RunConfig:
    """One fully-specified simulation run.

    ``spec`` carries the paper's parameter point; the remaining fields
    select *how* it is executed (backend engine) and which network
    ablations are active.  Frozen + picklable, so a config can be shipped
    to a worker process or logged next to its results.
    """

    spec: WorkloadSpec
    backend: str = DEFAULT_BACKEND
    bcast_mode: str = "clone"           # Quarc ablation: "clone" | "relay"
    #: observability block (:class:`repro.obs.ObsSpec`).  ``None`` --
    #: the default and the zero-overhead path -- installs nothing:
    #: no probe callbacks, no histogram bank, no profiler wrappers.
    obs: Optional[ObsSpec] = None
    #: spatial domain decomposition: split *this one run* across
    #: ``shard_workers`` processes, each owning a contiguous arc of the
    #: network (``repro.sim.shard``).  Orthogonal to the replication
    #: pool's ``workers`` axis, which shards *whole runs*.  Requires the
    #: ``array`` backend; the merged summary is byte-identical to
    #: ``shard_workers=1``.
    shard_workers: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown simulation backend {self.backend!r}; "
                f"expected one of {sorted(BACKENDS)}")
        if self.shard_workers < 1:
            raise ValueError(
                f"shard_workers must be >= 1 (got {self.shard_workers})")

    def with_backend(self, backend: str) -> "RunConfig":
        return replace(self, backend=backend)


def _closedloop_trace(cfg: RunConfig, s: "SimulationSession") -> bool:
    return (s._closedloop is not None
            and cfg.spec.arrival.split(":", 1)[0].strip() == "trace")


#: The axis-combination validation table: every invalid combination of
#: workload semantics x execution axes lives here, checked once at
#: session construction with an actionable message -- not as scattered
#: mid-run failures.  Each rule is ``(predicate(config, session),
#: message)``, the message a ``str.format`` template over ``cfg``;
#: predicates run after the mix (and any closed-loop engine) is wired
#: but before faults/observability installation.
_AXIS_RULES = (
    (_closedloop_trace,
     "closed-loop workloads cannot replay a trace (arrival='trace:...'):"
     " replayed injections are fixed at their recorded cycles and cannot"
     " react to delivery feedback; drop the trace arrival, or record and"
     " replay the open-loop variant of the workload (window=0)"),
    (lambda cfg, s: s._closedloop is not None and cfg.shard_workers > 1,
     "closed-loop workloads cannot run sharded (shard_workers > 1): the"
     " closed-loop engine needs its tagged-tail and barrier callbacks,"
     " which the sharded engine does not transport across shard"
     " boundaries; run with shard_workers=1 (any backend)"),
    (lambda cfg, s: s._closedloop is not None and bool(cfg.spec.faults),
     "closed-loop workloads cannot be combined with fault injection: a"
     " dropped request or reply would strand its window slot forever and"
     " deadlock the source; clear spec.faults, or use the open-loop"
     " variant of the workload (window=0)"),
    (lambda cfg, s: getattr(s.mix, "reactive", False)
     and s._closedloop is None,
     "reactive arrival models ('closedloop:...') need an engine feeding"
     " them delivery callbacks, which only closed-loop workloads wire"
     " up; use e.g. workload='cache_coherence:window=4' instead of a"
     " bare closedloop arrival spec"),
    # sharded runs (``repro.sim.shard``); the one shard rejection not
    # decidable here, a ``net.on_tail`` hook, stays in its runner
    (lambda cfg, s: cfg.shard_workers > 1 and cfg.backend != "array",
     "--shard-workers requires the array backend (got {cfg.backend!r}):"
     " a single run is sharded by splitting the flat array state, which"
     " object-graph backends do not have.  Use --workers to parallelise"
     " across replicates instead."),
    (lambda cfg, s: cfg.shard_workers > 1 and bool(cfg.spec.faults),
     "--shard-workers does not compose with fault injection yet (mid-run"
     " fault events are not shard-coordinated); drop --faults or"
     " --shard-workers"),
    (lambda cfg, s: cfg.shard_workers > 1 and cfg.obs is not None
     and cfg.obs.progress,
     "--shard-workers does not support progress heartbeats (each shard"
     " only sees its own arc); drop --progress"),
    (lambda cfg, s: cfg.shard_workers > 1
     and getattr(s.mix, "_replay", None) is not None,
     "--shard-workers cannot replay v2 traces (trace injection is not"
     " spatially decomposed)"),
    (lambda cfg, s: cfg.shard_workers > cfg.spec.n,
     "shard_workers={cfg.shard_workers} exceeds n={cfg.spec.n}"),
)


def _merge_probes(probes: Dict[int, Callable[[int], None]],
                  extra: Dict[int, Callable[[int], None]]) -> None:
    """Merge probe callbacks cycle-wise, chaining on collisions (the
    mid-run backlog probe and a telemetry boundary can share a cycle;
    both must fire, existing callback first)."""
    for t, cb in extra.items():
        prev = probes.get(t)
        if prev is None:
            probes[t] = cb
        else:
            def chained(now, _first=prev, _second=cb):
                _first(now)
                _second(now)
            probes[t] = chained


class SimulationSession:
    """Build a network, attach traffic + collector, run, summarise.

    The lifecycle is split so tests and custom experiments can intervene:
    construction wires everything (network, backend, mix, collector);
    :meth:`run` executes the configured horizon with the mid-run backlog
    probe; :meth:`drain` empties the network through the same backend;
    :meth:`summary` assembles the :class:`RunSummary` at any point.
    """

    def __init__(self, config: RunConfig):
        # Imported lazily: repro.core imports repro.sim.stats, so a
        # module-level import here would be circular when the interpreter
        # enters the package graph through repro.core.
        from repro.core.api import build_network
        from repro.core.collector import LatencyCollector
        from repro.traffic.mix import TrafficMix
        from repro.workloads.registry import (resolve_arrival,
                                              resolve_pattern)

        self.config = config
        spec = config.spec
        self.collector = LatencyCollector(warmup=spec.warmup)
        self.net, self.topo = build_network(
            spec.kind, spec.n, buffer_depth=spec.buffer_depth,
            collector=self.collector, bcast_mode=config.bcast_mode)
        self.backend: SimBackend = make_backend(config.backend, self.net)
        #: the closed-loop engine, when the workload declares closed
        #: semantics (``None`` for every open-loop run)
        self._closedloop = None
        if spec.workload:
            # multi-class mode: the workload spec names the class list;
            # spec.rate scales every class's native rate (the sweep axis)
            from repro.workloads.closedloop import (ClosedLoopEngine,
                                                    ClosedLoopWorkload)
            from repro.workloads.registry import resolve_workload
            built = resolve_workload(spec.workload, spec.n)
            if isinstance(built, ClosedLoopWorkload):
                if spec.rate != 1.0:
                    built = built.scaled(spec.rate)
                self.mix = TrafficMix(self.net, seed=spec.seed,
                                      classes=built.classes)
                # the engine hooks itself into the mix and subscribes
                # to its own tagged tails
                self._closedloop = ClosedLoopEngine(
                    built, self.mix, warmup=spec.warmup)
            else:
                classes = built
                if spec.rate != 1.0:
                    classes = [c.scaled(spec.rate) for c in classes]
                self.mix = TrafficMix(self.net, seed=spec.seed,
                                      classes=classes)
        else:
            self.mix = TrafficMix(
                self.net, spec.rate, spec.msg_len, spec.beta,
                seed=spec.seed,
                pattern=resolve_pattern(spec.pattern, spec.n),
                arrival=resolve_arrival(spec.arrival))
        for rule, message in _AXIS_RULES:
            if rule(config, self):
                raise ValueError(message.format(cfg=config))
        if self.backend.name == "array":
            from repro.sim.array_backend import check_packet_flits
            check_packet_flits(self._packet_sizes())
        self._backlog_mid = 0
        # fault model (opt-in; spec.faults empty leaves the network's
        # fault seam at None, i.e. zero overhead and untouched routing)
        self._fs = None
        self._fault_cycles: Dict[int, list] = {}
        if spec.faults:
            from repro.faults import FaultPlan, FaultState
            plan = FaultPlan.parse(spec.faults)
            self._fs = FaultState(plan, self.net, spec.seed)
            self._fs.install(self.net)
            due0 = []
            for t, evs in self._fs.events_by_cycle().items():
                if t <= 0:
                    due0.extend(evs)
                else:
                    self._fault_cycles[t] = evs
            if due0:
                self.backend.apply_faults(self._fs, due0)
        # observability (all opt-in; config.obs None leaves every hot
        # path untouched)
        self.probe_set = None
        self.profiler = None
        self._heartbeat = None
        obs = config.obs
        if obs and obs.latency_hist:
            from repro.obs.hist import HistogramBank
            self.collector.hist = HistogramBank()

    # ------------------------------------------------------------------
    def run(self) -> RunSummary:
        """Run the configured horizon and return the summary."""
        # shards split the array engine's state; where the kernel did not
        # load the run is serial on reference, equal by contract
        if self.config.shard_workers > 1 and self.backend.name == "array":
            from repro.sim.shard.runner import run_sharded
            return run_sharded(self)
        probes = self._probe_schedule()
        try:
            self.backend.run_mix(self.mix, self.config.spec.cycles, probes)
        finally:
            if self.profiler is not None:
                self.profiler.finish()
            if self._heartbeat is not None:
                self._heartbeat.finish()
        return self.summary()

    def _probe_schedule(self) -> Dict[int, Callable[[int], None]]:
        """The run's ``{cycle: callback}`` dict, shared by the serial
        loop and every shard worker so their probe order cannot differ;
        also installs the configured telemetry."""
        spec = self.config.spec
        mid = spec.warmup + (spec.cycles - spec.warmup) // 2
        # fault events for cycle T land as a probe after step(T-1) --
        # i.e. before generate(T) -- so a fault scheduled at T shapes
        # cycle T's traffic in every backend identically.  They seed the
        # probe dict so on a shared cycle the fault applies before any
        # observer reads the network.
        probes: Dict[int, Callable[[int], None]] = {}
        for t, evs in self._fault_cycles.items():
            if t - 1 < spec.cycles:
                probes[t - 1] = (lambda now, _evs=evs:
                                 self.backend.apply_faults(self._fs, _evs))
        _merge_probes(probes, {mid: self._probe_backlog})
        if self.config.obs:
            self._install_obs(probes, spec.cycles)
        return probes

    def _install_obs(self, probes: Dict[int, Callable[[int], None]],
                     cycles: int) -> None:
        """Merge the configured telemetry into the run's probe dict and
        attach the profiler.  Probe-cycle merging chains callbacks, so
        the mid-run backlog probe keeps firing on a shared cycle."""
        obs = self.config.obs
        t0 = self.net.cycle
        if obs.probes:
            from repro.obs.probes import ProbeSet
            self.probe_set = ProbeSet(obs.probes, self.backend, self.mix)
            _merge_probes(probes, self.probe_set.schedule(t0, cycles))
        if obs.progress:
            from repro.obs.progress import RunHeartbeat
            self._heartbeat = RunHeartbeat()
            _merge_probes(probes, self._heartbeat.schedule(
                t0, cycles, self.net, self.collector))
        if obs.profile:
            from repro.obs.profiler import PhaseProfiler
            self.profiler = PhaseProfiler(self).attach()

    def _packet_sizes(self) -> Dict[str, int]:
        """Every packet size this session can inject, keyed by the field
        that declares it."""
        mix = self.mix
        if not mix.classes:
            return {"msg_len": getattr(mix, "replay_max_len", None)
                    or self.config.spec.msg_len}
        sizes = {f"class {c.name!r} msg_len": c.msg_len
                 for c in mix.classes}
        if self._closedloop is not None:
            for cl in self._closedloop.wl.closed:
                sizes[f"class {cl.name!r} req_len"] = cl.req_len
        return sizes

    def _probe_backlog(self, now: int) -> None:
        self._backlog_mid = self.net.fabric_flits()

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run without new traffic until empty; returns cycles taken."""
        return self.backend.drain(max_cycles)

    def run_replicated(self, replicates: int, workers: int = 1):
        """Run ``replicates`` seed-spawned copies of this session's
        config (fresh networks, independent seeds -- see
        :mod:`repro.sim.replication`) and return the aggregated
        :class:`~repro.sim.replication.ReplicatedSummary`.

        This session's own network/RNG state is untouched: replicate
        seeds live in the reserved ``replicate:{r}`` stream namespace,
        so the single-run draw order (and the golden fixtures pinning
        it) cannot be perturbed.  ``workers > 1`` shards the replicates
        across a process pool with byte-identical results.
        """
        from repro.sim.replication import run_replicated
        return run_replicated(self.config, replicates, workers=workers)

    # ------------------------------------------------------------------
    def summary(self) -> RunSummary:
        spec = self.config.spec
        coll = self.collector
        net = self.net
        mix = self.mix
        backlog_end = net.fabric_flits()
        delivered = coll.delivered_unicast + coll.completed_collective
        offered = mix.generated_total
        accepted_ratio = delivered / offered if offered else 1.0
        # saturated when the network visibly cannot drain the offered
        # load: large undelivered backlog and growing in-flight population
        if mix.classes:
            msg_len_ref = max(c.msg_len for c in mix.classes)
        else:
            # v2-trace replays carry their sizes in the events; the
            # fallback keeps a replayed run's saturation threshold
            # aligned with its original (same max message size)
            msg_len_ref = getattr(mix, "replay_max_len", None) \
                or spec.msg_len
        saturated = (offered > 20
                     and accepted_ratio < 0.85
                     and backlog_end > max(self._backlog_mid,
                                           spec.n * msg_len_ref))
        summary = RunSummary(
            noc=spec.kind, n=spec.n, msg_len=spec.msg_len,
            bcast_frac=spec.beta, offered_rate=spec.rate,
            cycles=spec.cycles, warmup=spec.warmup, seed=spec.seed,
            unicast_mean=coll.unicast_mean,
            unicast_ci=coll.unicast_ci(),
            unicast_samples=coll.unicast.overall.n,
            unicast_max=(coll.unicast.overall.max
                         if coll.unicast.overall.n else 0.0),
            bcast_mean=coll.collective_mean,
            bcast_ci=coll.collective_ci(),
            bcast_samples=coll.collective.overall.n,
            bcast_delivery_mean=(coll.delivery.mean
                                 if coll.delivery.n else 0.0),
            generated_msgs=mix.generated_total,
            delivered_msgs=delivered,
            accepted_rate=delivered / (spec.cycles * spec.n),
            flits_moved=net.flits_moved,
            in_flight_at_end=backlog_end,
            saturated=saturated,
        )
        # NOTE: deliberately no backend tag in `extra` -- summaries from
        # different backends at the same config must compare equal, which
        # the equivalence tests rely on.
        summary.extra["relay_segments"] = coll.relay_segments
        summary.extra["measured_cycles"] = spec.cycles - spec.warmup
        summary.extra["pattern"] = spec.pattern
        summary.extra["arrival"] = spec.arrival
        if spec.workload:
            summary.extra["workload"] = spec.workload
        classes_extra = self._per_class_extra()
        if classes_extra is not None:
            summary.extra["classes"] = classes_extra
        # observability extras: only present when opted in (golden
        # fixtures and pre-obs summaries keep their exact shape) and
        # deterministic across backends (probe streams and histograms
        # are integer-identical by construction)
        if self._fs is not None:
            summary.extra["faults"] = self._fs.extra_block()
        if self.collector.hist is not None:
            summary.extra["latency_hist"] = self.collector.hist.to_dict()
        if self.probe_set is not None:
            summary.extra["probes"] = self.probe_set.to_extra()
            inflight = self.probe_set.series("inflight")
            if inflight:
                from repro.obs.probes import saturation_onset
                summary.extra["sat_onset"] = saturation_onset(
                    inflight, spec.n * msg_len_ref)
        return summary

    def _per_class_extra(self):
        """The per-class breakdown block of the summary, or ``None`` for
        untagged single-class runs (whose summaries -- and golden
        fixtures -- keep their exact pre-multi-class shape)."""
        mix = self.mix
        coll = self.collector
        eng = self._closedloop
        if mix.classes is not None:
            out = {}
            for cls in mix.classes:
                stats = coll.per_class.get(cls.name)
                block = {
                    "cast": cls.cast,
                    "msg_len": cls.msg_len,
                    "rate": cls.rate,
                    "generated": mix.class_generated.get(cls.name, 0),
                    "delivered": stats.delivered if stats else 0,
                    "latency_mean": stats.latency_mean if stats else 0.0,
                    "samples": stats.latency.n if stats else 0,
                }
                if eng is not None:
                    # completion time (transaction round trip / phase
                    # duration) alongside per-message latency -- only
                    # for classes with closed-loop semantics, so open
                    # classes (and open-loop runs) keep their shape
                    cl_block = eng.class_block(cls.name)
                    if cl_block is not None:
                        block.update(cl_block)
                out[cls.name] = block
            return out
        if mix.class_generated:
            # v2-trace replay of a multi-class run: class declarations
            # are not part of the trace, so only the measured breakdown
            # is reported
            out = {}
            for name in sorted(mix.class_generated):
                stats = coll.per_class.get(name)
                out[name] = {
                    "generated": mix.class_generated[name],
                    "delivered": stats.delivered if stats else 0,
                    "latency_mean": stats.latency_mean if stats else 0.0,
                    "samples": stats.latency.n if stats else 0,
                }
            return out
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimulationSession {self.config.spec.label()} "
                f"backend={self.config.backend}>")
