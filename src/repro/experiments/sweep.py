"""Rate sweeps and Quarc-vs-Spidergon comparison grids.

The figures plot latency against per-node message rate.  The interesting
range depends on where the network saturates, which the analytical models
predict; :func:`default_rates` spaces points from near-zero load up to
just past the *Spidergon's* saturation point so every figure shows both
the flat region and both knees, like the paper's curves.

Every point runs through :class:`repro.sim.session.SimulationSession`
via the :class:`~repro.sim.replication.ExecutionEngine`, so sweeps
accept a ``backend`` selector, a process pool (``workers > 1``) and a
replication factor (``replicates > 1``).  With replication each rate
point expands into R (rate x seed) *cells* -- the full cell grid is
what the pool shards, not just the rate axis -- and comes back as one
:class:`~repro.sim.replication.ReplicatedSummary` per rate with mean /
95%-CI statistics.  Results are byte-identical for every worker count.

Beyond the paper's rate sweeps, :func:`sweep_scenarios` runs a *scenario
grid* -- the cross product of network kinds x spatial patterns x
temporal arrival models from :mod:`repro.workloads` -- at one rate
point, which is what ``benchmarks/bench_scenarios.py`` and the
scenario-matrix CI job drive.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Union)

from repro.analysis import saturation_rate
from repro.sim.backend import DEFAULT_BACKEND
from repro.sim.records import RunSummary
from repro.sim.replication import (ExecutionEngine, ReplicatedSummary,
                                   ReplicationPlan)
from repro.sim.session import RunConfig
from repro.traffic.workload import WorkloadSpec

__all__ = ["default_rates", "default_workload_rates", "sweep_rates",
           "compare_networks", "sweep_scenarios", "SweepSummary"]

#: what sweeps yield: single-seed rows or cross-replicate aggregates
SweepSummary = Union[RunSummary, ReplicatedSummary]


def default_rates(n: int, msg_len: int, beta: float,
                  points: int = 6) -> List[float]:
    """Rates from light load to just past the *simulated* knee.

    The cycle simulator saturates below the M/G/1 bound because wormhole
    blocking with finite lane buffers wastes link capacity; empirically
    the knee sits around 55-70% of the analytic rate, so the grid tops
    out at 0.65x -- the last point lands past the knee (the figures'
    vertical tail) while the earlier points resolve the rising region.
    """
    sat = min(saturation_rate("spidergon", n, msg_len, beta),
              saturation_rate("quarc", n, msg_len, beta))
    top = 0.65 * sat
    if points < 2:
        return [top]
    return [round(top * (i + 1) / points, 6) for i in range(points)]


def default_workload_rates(points: int = 3) -> List[float]:
    """The multiplier axis of multi-class workload sweeps: evenly
    spaced up to 1.5x the scenario's native class rates (the single
    source of truth for the CLI and :func:`compare_networks`)."""
    if points < 2:
        return [1.0]
    return [round(1.5 * (i + 1) / points, 6) for i in range(points)]


def _cells(specs: Sequence[WorkloadSpec], backend: str,
           plan: Optional[ReplicationPlan],
           kwargs: dict) -> List[RunConfig]:
    """Flatten a spec list into engine work units, replicate-minor (all
    seeds of spec 0, then spec 1, ...) so grouping back is positional."""
    cells: List[RunConfig] = []
    for s in specs:
        config = RunConfig(spec=s, backend=backend, **kwargs)
        if plan is None:
            cells.append(config)
        else:
            cells.extend(plan.configs(config))
    return cells


def _grouped(engine: ExecutionEngine, cells: Sequence[RunConfig],
             specs: Sequence[WorkloadSpec],
             plan: Optional[ReplicationPlan]
             ) -> Iterator[SweepSummary]:
    """Yield one summary per spec, aggregating replicate batches.

    Lazy: closing this generator early closes the engine iterator,
    which terminates the pool and abandons unfinished cells.
    """
    results = engine.imap(cells)
    try:
        if plan is None:
            yield from results
            return
        batch: List[RunSummary] = []
        idx = 0
        for summary in results:
            batch.append(summary)
            if len(batch) == plan.replicates:
                yield ReplicatedSummary.from_runs(specs[idx], batch, plan)
                batch = []
                idx += 1
    finally:
        results.close()


def sweep_rates(spec: WorkloadSpec, rates: Sequence[float],
                verbose: bool = False, backend: str = DEFAULT_BACKEND,
                workers: int = 1, replicates: int = 1,
                progress: Optional[Callable[[int, int], None]] = None,
                **kwargs) -> List[SweepSummary]:
    """Run ``spec`` at each rate; stops early after two saturated points
    (the curve is vertical there, more points add nothing but runtime).

    With ``workers > 1`` the (rate x seed) cells run in a process pool.
    Results arrive in rate order and the early stop fires on the same
    two-saturated-points rule, abandoning still-running past-knee
    cells, so parallel and serial sweeps return identical prefixes.

    With ``replicates > 1`` each rate point runs at R seeds spawned
    from ``spec.seed`` (the same R seeds at every rate -- common random
    numbers along the curve) and the result list holds
    :class:`ReplicatedSummary` aggregates; a point counts as saturated
    when at least half its replicates saturated.

    ``progress`` (a ``callback(done, total)``) observes cell
    completions live; remaining keywords -- e.g. an ``obs=``
    observability block -- flow into every cell's :class:`RunConfig`.
    """
    specs = list(spec.sweep_rates(rates))
    plan = (ReplicationPlan(spec.seed, replicates)
            if replicates > 1 else None)
    engine = ExecutionEngine(workers, progress=progress)
    out: List[SweepSummary] = []
    saturated_seen = 0

    def note(s: WorkloadSpec, summary: SweepSummary) -> bool:
        """Record one point; True once the saturated tail is reached."""
        nonlocal saturated_seen
        out.append(summary)
        if verbose:  # pragma: no cover - console convenience
            print(f"  {s.label():45s} uni={summary.unicast_mean:8.1f} "
                  f"bcast={summary.bcast_mean:9.1f} "
                  f"{'SAT' if summary.saturated else ''}")
        if summary.saturated:
            saturated_seen += 1
        return saturated_seen >= 2

    grouped = _grouped(engine, _cells(specs, backend, plan, kwargs),
                       specs, plan)
    try:
        for s, summary in zip(specs, grouped):
            if note(s, summary):
                break
    finally:
        grouped.close()
    return out


def compare_networks(n: int, msg_len: int, beta: float,
                     rates: Optional[Sequence[float]] = None,
                     cycles: int = 12_000, warmup: int = 3_000,
                     seed: int = 1, kinds: Sequence[str] = ("quarc",
                                                            "spidergon"),
                     verbose: bool = False, backend: str = DEFAULT_BACKEND,
                     workers: int = 1, pattern: str = "uniform",
                     arrival: str = "bernoulli", workload: str = "",
                     faults: str = "", replicates: int = 1, obs=None,
                     progress: Optional[Callable[[int, int], None]] = None,
                     shard_workers: int = 1
                     ) -> Dict[str, List[SweepSummary]]:
    """The paper's core comparison at one (N, M, beta) configuration.

    Both networks see the same seeds (common random numbers), so latency
    differences are attributable to the architecture, not the workload
    draw -- with ``replicates > 1`` both networks see the same *spawned
    seed list*, extending the pairing to every replicate.  ``pattern`` /
    ``arrival`` select the workload scenario (spec strings, see
    :mod:`repro.workloads.registry`); a non-empty ``workload`` selects a
    multi-class mix instead, with ``rates`` acting as multipliers on the
    class rates.  A non-empty ``faults`` plan (see :mod:`repro.faults`)
    injects the same fault schedule into every cell, so the sweep
    measures saturation shift *under* degradation; each summary then
    carries its drop accounting in ``extra["faults"]``.
    """
    if rates is None:
        rates = (default_rates(n, msg_len, beta) if not workload
                 else default_workload_rates())
    results: Dict[str, List[SweepSummary]] = {}
    for kind in kinds:
        spec = WorkloadSpec.parse(
            kind=kind, n=n, msg_len=msg_len, beta=beta,
            rate=0.0, cycles=cycles, warmup=warmup,
            seed=seed, pattern=pattern, arrival=arrival,
            workload=workload, faults=faults)
        if verbose:  # pragma: no cover
            print(f"[{kind}] N={n} M={msg_len} beta={beta:g}")
        kwargs = {"obs": obs} if obs is not None else {}
        if shard_workers > 1:
            # spatial decomposition of every cell's single run
            # (repro.sim.shard); orthogonal to the pool's ``workers``
            kwargs["shard_workers"] = shard_workers
        results[kind] = sweep_rates(spec, rates, verbose=verbose,
                                    backend=backend, workers=workers,
                                    replicates=replicates,
                                    progress=progress, **kwargs)
    return results


def sweep_scenarios(base: WorkloadSpec,
                    patterns: Sequence[str] = ("uniform",),
                    arrivals: Sequence[str] = ("bernoulli",),
                    kinds: Optional[Sequence[str]] = None,
                    workloads: Optional[Sequence[str]] = None,
                    backend: str = DEFAULT_BACKEND, workers: int = 1,
                    replicates: int = 1, obs=None,
                    progress: Optional[Callable[[int, int], None]] = None,
                    verbose: bool = False) -> List[SweepSummary]:
    """Run the scenario grid ``kinds x patterns x arrivals`` (or, when
    ``workloads`` is given, ``kinds x workloads``) at one rate point
    (``base.rate``).

    Every cell is ``base`` with its kind/pattern/arrival (or multi-class
    workload) replaced; the seed is shared, so all cells see common
    random numbers where the scenario allows it.  Results come back in
    grid order (kind-major); each summary carries its scenario in
    ``extra["pattern"]`` / ``extra["arrival"]`` /
    ``extra["workload"]``.  ``workers > 1`` shards the (cell x seed)
    grid across a process pool and ``replicates > 1`` aggregates each
    cell over spawned seeds, with results identical for every worker
    count.
    """
    kinds = list(kinds) if kinds is not None else [base.kind]
    if workloads is not None:
        grid = [base.with_kind(k).with_scenario(workload=w)
                for k in kinds for w in workloads]
    else:
        grid = [base.with_kind(k).with_scenario(pattern=p, arrival=a)
                for k in kinds for p in patterns for a in arrivals]
    plan = (ReplicationPlan(base.seed, replicates)
            if replicates > 1 else None)
    engine = ExecutionEngine(workers, progress=progress)
    kwargs = {"obs": obs} if obs is not None else {}
    out = list(_grouped(engine, _cells(grid, backend, plan, kwargs),
                        grid, plan))
    if verbose:  # pragma: no cover - console convenience
        for s, summary in zip(grid, out):
            print(f"  {s.label():60s} uni={summary.unicast_mean:8.1f} "
                  f"{'SAT' if summary.saturated else ''}")
    return out
