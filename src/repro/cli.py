"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info
    Topology statistics and analytical saturation for a network.
sweep
    One latency/load sweep with ASCII plots (a terminal Fig. 9 panel).
run
    A single simulation point, printed as a row.
scenarios
    Discover the named workload scenarios (``list``) or inspect one
    (``show <name>``).
trace
    Record a run's arrival train to a JSONL file (``record``) or replay
    one deterministically (``replay``).
table1 / fig12
    The area-model artefacts.
fig9 / fig10 / fig11
    Regenerate a full figure's rows to CSV (same drivers the benchmarks
    use; pass --full for the big grids).

Workload scenarios: ``run``, ``sweep`` and ``trace record`` accept
``--pattern`` / ``--arrival`` spec strings and ``--workload``
multi-class specs, e.g.::

    repro run --rate 0.01 --pattern hotspot:node=0,p=0.3 \\
              --arrival bursty:on=0.25,len=8
    repro run --workload cache_coherence:storms=true
    repro sweep --workload allreduce:chunk=8 --points 4
    repro scenarios list
    repro trace record --out run.jsonl --rate 0.01 --arrival bursty
    repro trace replay --path run.jsonl

Multi-class runs print a per-class latency/throughput breakdown after
the aggregate row; recordings are ``repro-trace/v2`` (destination,
class, size and broadcast flag per event), so replay is seed- and
pattern-independent.

Fault injection: the same commands accept ``--faults`` plans (the
:mod:`repro.faults` grammar) that kill links or routers at configured
cycles, identically on every backend; rows then gain ``dropped`` /
``dead_links`` / ``dead_routers`` columns and the summary carries the
full accounting in ``extra["faults"]``::

    repro run --rate 0.01 --faults 'links:down=3@cycle=500'
    repro sweep --faults 'link:src=0,dst=1@cycle=200' --points 4

Replication: ``run``, ``sweep`` and the figure commands accept
``--replicates R`` (independent seeds spawned from ``--seed``, reported
as mean / 95% CI with ASCII error bands) and ``--workers N`` (process
pool sharding the full rate-point x seed cell grid).  Output is
byte-identical for every worker count::

    repro sweep --replicates 8 --workers 4
    repro run --rate 0.01 --replicates 16 --workers 8

Observability (``repro.obs``, all opt-in): ``run`` accepts repeatable
``--probe NAME[:window=W]`` windowed samplers (occupancy / links /
rates / inflight / stalls — byte-identical on every backend),
``--hist`` latency histograms with per-class percentiles, ``--profile``
for the phase/kernel wall-time split, ``--metrics-out FILE`` for the
``repro-metrics/v1`` JSONL (or ``.csv``) export, and ``--progress``
for a live heartbeat; ``sweep --probe inflight`` adds a saturation
onset column::

    repro run --rate 0.02 --probe occupancy:window=64 --probe inflight \\
              --hist --metrics-out run.metrics.jsonl
    repro sweep --probe inflight --progress

Process exit: ``python -m repro`` and the ``repro`` script both enter
through :func:`entry`, which runs :func:`main` and then freezes the
heap (``gc.freeze``) before exiting with its code.  Interpreter
finalisation runs several full cyclic collections, each a walk over
every import-time object and the finished network graph (about 13 ms
per pass at N = 64, 25 ms at N = 384); frozen objects are not walked.
``atexit`` handlers (the multiprocessing pool's) and the stdio flush
still run, and nothing in ``repro`` leaves a file or a process to a
finaliser.  :func:`main` itself never freezes: tests call it in-process
many times, and a freeze there would pin each run's cyclic garbage for
the rest of the process.

Imports: each command imports the drivers it runs itself, so ``run``
loads no sweep, figure, analytic or area model and no
``multiprocessing`` (``tests/test_cli.py`` lists what it must not);
``run_fig9`` and its siblings stay patchable attributes of this module.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import List, NoReturn, Optional

from repro._lazy import lazy_exports
from repro.core.api import NETWORK_KINDS
from repro.experiments.csvout import format_table, write_csv
from repro.sim.backend import BACKENDS, DEFAULT_BACKEND
from repro.traffic.workload import WorkloadSpec

__all__ = ["main", "entry", "build_parser"]

__getattr__ = lazy_exports(__name__, {"repro.experiments.figures": (
    "run_fig9", "run_fig10", "run_fig11", "run_fig12", "run_table1")})


def _driver(name: str):
    """A table or figure driver, read as this module's attribute."""
    return getattr(sys.modules[__name__], name)


def _positive_int(text: str) -> int:
    """argparse type for --workers/--replicates: a clear usage error
    instead of a multiprocessing/seed-plan traceback deep in a run."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Quarc NoC reproduction (Moadeli et al., IPDPS 2009)")
    sub = p.add_subparsers(dest="command", required=True)

    def add_net_args(sp, kinds=True):
        if kinds:
            sp.add_argument("--kind", choices=NETWORK_KINDS,
                            default="quarc")
        sp.add_argument("-n", "--nodes", type=int, default=16)
        sp.add_argument("-M", "--msg-len", type=int, default=16)
        sp.add_argument("--beta", type=float, default=0.05,
                        help="broadcast fraction")
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--cycles", type=int, default=8000)
        sp.add_argument("--warmup", type=int, default=2000)

    def add_engine_args(sp, workers=True, replicates=False,
                        shard=False):
        sp.add_argument("--backend", choices=sorted(BACKENDS),
                        default=DEFAULT_BACKEND,
                        help="simulation engine: array = the engine and "
                             "the default (array-resident state, compiled "
                             "cycle kernel); reference = the per-cycle "
                             "oracle, identical results, 8-60x slower")
        if workers:
            sp.add_argument("--workers", type=_positive_int, default=1,
                            help="parallel processes sharding the "
                                 "(rate point x seed) cell grid -- one "
                                 "whole run per process (default: "
                                 "serial; results identical for any "
                                 "worker count).  To split a single "
                                 "run spatially, see --shard-workers")
        if replicates:
            sp.add_argument("--replicates", type=_positive_int,
                            default=1,
                            help="independent seeds per point, spawned "
                                 "from --seed; > 1 reports mean / "
                                 "stddev / 95%% CI per metric")
        if shard:
            sp.add_argument("--shard-workers", type=_positive_int,
                            default=1,
                            help="spatial domain decomposition: split "
                                 "each single run across N processes, "
                                 "one contiguous shard of the network "
                                 "each, with shared-memory halo "
                                 "exchange (array engine only; "
                                 "summaries byte-identical to "
                                 "--shard-workers 1).  Orthogonal to "
                                 "--workers, which parallelises across "
                                 "whole runs; the two compose")

    def add_obs_args(sp, metrics=True):
        sp.add_argument("--probe", action="append", default=None,
                        metavar="NAME[:window=W]",
                        help="sample a telemetry probe (repeatable); "
                             "names: occupancy, links, rates, inflight, "
                             "stalls (default window 64)")
        sp.add_argument("--progress", action="store_true",
                        help="live heartbeat (cycles/s, ETA, delivered) "
                             "on stderr")
        if metrics:
            sp.add_argument("--hist", action="store_true",
                            help="collect latency histograms "
                                 "(p50/p95/p99/max per class)")
            sp.add_argument("--profile", action="store_true",
                            help="wall-time phase profile (inject / "
                                 "step / collect; plus fold, C kernel "
                                 "and Python replay on the array engine)")
            sp.add_argument("--metrics-out", default="",
                            metavar="PATH",
                            help="write the probe stream as "
                                 "repro-metrics/v1 JSONL (or CSV with a "
                                 ".csv suffix); requires --probe")

    def add_workload_args(sp):
        sp.add_argument("--pattern", default="uniform",
                        help="spatial scenario spec, e.g. "
                             "'hotspot:node=0,p=0.2' "
                             "(see: repro scenarios list)")
        sp.add_argument("--arrival", default="bernoulli",
                        help="temporal scenario spec, e.g. "
                             "'bursty:on=0.3,len=8' or "
                             "'trace:path=run.jsonl'")
        sp.add_argument("--workload", default="",
                        help="multi-class workload spec, e.g. "
                             "'cache_coherence:storms=true', "
                             "'allreduce:chunk=8' or 'classes:...' "
                             "(overrides -M/--beta/--pattern/--arrival; "
                             "--rate becomes a multiplier on the class "
                             "rates, default 1.0)")
        sp.add_argument("--faults", default="",
                        help="fault plan, e.g. "
                             "'link:src=0,dst=1@cycle=200', "
                             "'links:down=3@cycle=500' or "
                             "'router:node=5@cycle=0' (';'-separated "
                             "clauses; deterministic per --seed)")

    sp = sub.add_parser("info", help="topology + analytic model summary")
    add_net_args(sp)

    sp = sub.add_parser("sweep", help="latency/load sweep with ASCII plot")
    add_net_args(sp, kinds=False)
    add_engine_args(sp, replicates=True, shard=True)
    add_workload_args(sp)
    add_obs_args(sp, metrics=False)
    sp.add_argument("--points", type=int, default=5)
    sp.add_argument("--csv", default="", help="write rows to this CSV")

    sp = sub.add_parser("run", help="one simulation point")
    add_net_args(sp)
    add_engine_args(sp, replicates=True, shard=True)
    add_workload_args(sp)
    add_obs_args(sp)
    sp.add_argument("--rate", type=float, default=None,
                    help="messages/node/cycle (required unless "
                         "--workload is given, where it is a rate "
                         "multiplier defaulting to 1.0)")

    sp = sub.add_parser("scenarios",
                        help="discover named workload scenarios")
    sp.add_argument("action", nargs="?", choices=("list", "show"),
                    default="list")
    sp.add_argument("name", nargs="?", default="",
                    help="scenario name (for 'show')")

    sp = sub.add_parser("trace", help="record / replay arrival traces")
    tsub = sp.add_subparsers(dest="trace_action", required=True)

    tp = tsub.add_parser("record",
                         help="run a scenario and write its arrival "
                              "trace as JSONL")
    add_net_args(tp)
    add_engine_args(tp, workers=False)
    add_workload_args(tp)
    tp.add_argument("--rate", type=float, default=None,
                    help="messages/node/cycle (required unless "
                         "--workload is given)")
    tp.add_argument("--out", required=True, help="trace output path")

    tp = tsub.add_parser("replay",
                         help="re-run a recorded trace deterministically "
                              "(parameters default to the recording's "
                              "metadata; explicit flags override it)")
    add_engine_args(tp, workers=False)
    tp.add_argument("--kind", choices=NETWORK_KINDS, default=None)
    tp.add_argument("-n", "--nodes", type=int, default=None,
                    help="node count (must match the trace's)")
    tp.add_argument("-M", "--msg-len", type=int, default=None)
    tp.add_argument("--beta", type=float, default=None,
                    help="broadcast fraction")
    tp.add_argument("--seed", type=int, default=None)
    tp.add_argument("--cycles", type=int, default=None)
    tp.add_argument("--warmup", type=int, default=None)
    tp.add_argument("--pattern", default=None,
                    help="spatial scenario spec -- v1 traces only "
                         "(times-only: destinations are re-drawn at "
                         "replay time from pattern + seed); v2 traces "
                         "replay recorded destinations verbatim and "
                         "ignore this")
    tp.add_argument("--path", required=True, help="trace file to replay")

    sub.add_parser("table1", help="Table 1: Quarc module slices")
    sub.add_parser("fig12", help="Fig. 12: area vs flit width")
    for fig in ("fig9", "fig10", "fig11"):
        sp = sub.add_parser(fig, help=f"regenerate {fig} rows")
        add_engine_args(sp, replicates=True)
        sp.add_argument("--full", action="store_true",
                        help="full grids (slow)")
        sp.add_argument("--csv", default="",
                        help="output CSV path (default results/<fig>.csv)")
    return p


def _cmd_info(args) -> int:
    from repro.analysis import saturation_rate, stage_coefficients
    from repro.analysis.models import average_hops

    print(f"{args.kind} N={args.nodes}: "
          f"avg hops {average_hops(args.kind, args.nodes):.3f}")
    if args.kind in ("quarc", "spidergon"):
        coeffs = stage_coefficients(args.kind, args.nodes, args.msg_len,
                                    args.beta)
        sat = saturation_rate(args.kind, args.nodes, args.msg_len,
                              args.beta)
        print(f"load coefficients (M={args.msg_len}, beta={args.beta:g}):")
        for name, c in sorted(coeffs.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<10s} {c:8.2f} flit-cycles/msg "
                  f"{'<- binding' if c == max(coeffs.values()) else ''}")
        print(f"analytic saturation: {sat:.5f} msg/node/cycle "
              f"(simulated knee ~0.55-0.7x of this)")
    return 0


def _render_point_obs(session, summary, args) -> None:
    """Print the observability addenda of a probed/profiled point and
    write the metrics stream."""
    from repro.experiments.ascii_plot import ascii_heatmap, ascii_sparkline
    from repro.obs.hist import render_histogram

    hist = summary.extra.get("latency_hist")
    if hist:
        print()
        print("latency distribution (cycles):")
        for line in render_histogram(hist["unicast"], label="unicast"):
            print("  " + line)
        if hist["collective"]["n"]:
            for line in render_histogram(hist["collective"],
                                         label="collective"):
                print("  " + line)
    probe_set = session.probe_set
    if probe_set is not None:
        inflight = probe_set.series("inflight")
        if inflight:
            print()
            print(ascii_sparkline([v for _, v in inflight],
                                  label="inflight"))
            onset = summary.extra.get("sat_onset", -1)
            print(f"saturation onset: "
                  f"{'cycle %d' % onset if onset >= 0 else 'never'}")
        occupancy = probe_set.series("occupancy")
        if occupancy:
            rows = [[occ[r] for _, occ in occupancy]
                    for r in range(len(occupancy[0][1]))]
            print()
            print(ascii_heatmap(rows, title="router occupancy over time"))
    header = {}
    if session.profiler is not None:
        print()
        print(session.profiler.render())
        rep = session.profiler.report()
        if "footprint" in rep:
            header = {"objects": rep["footprint"]["objects"],
                      "packet_table": rep["packet_table"]}
    if args.metrics_out:
        from repro.obs.metrics import write_csv as write_metrics_csv
        from repro.obs.metrics import validate_file, write_jsonl
        if args.metrics_out.endswith(".csv"):
            path = write_metrics_csv(summary, args.metrics_out)
        else:
            path = write_jsonl(summary, args.metrics_out, header)
            validate_file(path)
        print(f"[metrics] {path}")


def _cmd_sweep(args) -> int:
    from repro.experiments.ascii_plot import ascii_curves
    from repro.experiments.figures import (bands_from_rows,
                                           curves_from_rows, latency_rows)
    from repro.experiments.sweep import (compare_networks, default_rates,
                                         default_workload_rates)

    if args.workload:
        # multi-class sweeps scale every class rate together: the rate
        # axis is a multiplier around the scenario's native rates
        rates = default_workload_rates(args.points)
        label = f"N={args.nodes} wl={args.workload}"
    else:
        rates = default_rates(args.nodes, args.msg_len, args.beta,
                              args.points)
        label = f"N={args.nodes} M={args.msg_len} b={args.beta:g}"
    obs = None
    if args.probe:
        from repro.obs import ObsSpec, parse_probe
        obs = ObsSpec(probes=tuple(parse_probe(t) for t in args.probe))
    progress_cb = None
    if args.progress:
        from repro.obs.progress import cell_progress
        progress_cb = cell_progress(label="sweep")
    results = compare_networks(args.nodes, args.msg_len, args.beta,
                               rates=rates, cycles=args.cycles,
                               warmup=args.warmup, seed=args.seed,
                               verbose=True, backend=args.backend,
                               workers=args.workers,
                               replicates=args.replicates,
                               pattern=args.pattern, arrival=args.arrival,
                               workload=args.workload, faults=args.faults,
                               obs=obs, progress=progress_cb,
                               shard_workers=args.shard_workers)
    rows = latency_rows(results, label)
    if args.replicates > 1:
        columns = ["noc", "rate", "unicast_lat", "unicast_ci95",
                   "bcast_lat", "bcast_ci95", "accepted", "replicates",
                   "saturated"]
    else:
        columns = ["noc", "rate", "unicast_lat", "bcast_lat",
                   "accepted", "saturated"]
    if any("sat_onset" in r for r in rows):
        # probe-derived saturation-onset cycle (single-seed probed
        # sweeps with an 'inflight' probe; -1 = never saturated)
        columns.append("sat_onset")
    print()
    print(format_table(rows, columns=columns))
    for metric in ("unicast_lat", "bcast_lat"):
        print()
        print(ascii_curves(curves_from_rows(rows, metric), title=metric,
                           bands=bands_from_rows(rows, metric)))
    if args.workload:
        for kind, summaries in results.items():
            if summaries:
                print()
                print(f"per-class breakdown ({kind}, "
                      f"x{summaries[-1].offered_rate:g}):")
                print(format_table(summaries[-1].class_rows()))
    if args.csv:
        print(f"[csv] {write_csv(rows, args.csv)}")
    return 0


def _resolve_rate(args) -> Optional[float]:
    """--rate is required for single-class runs; with --workload it is
    the class-rate multiplier and defaults to 1.0."""
    if args.rate is not None:
        return args.rate
    if getattr(args, "workload", ""):
        return 1.0
    print("error: --rate is required (it is only optional with "
          "--workload)", file=sys.stderr)
    return None


def _print_class_table(summary) -> None:
    rows = summary.class_rows()
    if rows:
        print()
        print("per-class breakdown:")
        print(format_table(rows))


def _cmd_point(args) -> int:
    rate = _resolve_rate(args)
    if rate is None:
        return 2
    from repro.obs import obs_from_args
    obs = obs_from_args(args)
    if args.metrics_out and not (obs and obs.probes):
        print("error: --metrics-out requires at least one --probe",
              file=sys.stderr)
        return 2
    spec = WorkloadSpec.parse(
        kind=args.kind, n=args.nodes, msg_len=args.msg_len,
        beta=args.beta, rate=rate, cycles=args.cycles,
        warmup=args.warmup, seed=args.seed,
        pattern=args.pattern, arrival=args.arrival,
        workload=args.workload, faults=args.faults)
    if args.replicates > 1:
        if args.metrics_out:
            # one stream documents one run; an aggregate has no single
            # probe stream to write
            print("error: --metrics-out is a single-run export; it "
                  "cannot be combined with --replicates > 1",
                  file=sys.stderr)
            return 2
        return _run_replicated_point(spec, args)
    from repro.sim.session import RunConfig, SimulationSession
    session = SimulationSession(
        RunConfig(spec=spec, backend=args.backend, obs=obs,
                  shard_workers=args.shard_workers))
    s = session.run()
    print(format_table([s.row()]))
    _print_class_table(s)
    if obs is not None:
        _render_point_obs(session, s, args)
    return 0


def _run_replicated_point(spec: WorkloadSpec, args) -> int:
    """One point at R spawned seeds: aggregate row with 95% CIs plus
    the per-seed drill-down rows."""
    from repro.experiments.csvout import format_mean_ci
    from repro.sim.replication import ExecutionEngine, run_replicated
    from repro.sim.session import RunConfig

    engine = None
    if getattr(args, "progress", False):
        from repro.obs.progress import cell_progress
        engine = ExecutionEngine(args.workers,
                                 progress=cell_progress(label="replicates"))
    rs = run_replicated(
        RunConfig(spec=spec, backend=args.backend,
                  shard_workers=getattr(args, "shard_workers", 1)),
        args.replicates, workers=args.workers, engine=engine)
    print(format_table([rs.row()]))
    uni = rs.metric("unicast_mean")
    print(f"unicast latency: {format_mean_ci(uni.mean, uni.ci_half_width)}"
          f" cycles (mean ±95% CI over {rs.replicates} replicates)")
    print()
    print(f"per-seed drill-down (seeds spawned from root seed "
          f"{spec.seed}):")
    seed_rows = []
    for seed, run in zip(rs.seeds, rs.runs):
        row = {"seed": seed}
        row.update(run.row())
        seed_rows.append(row)
    print(format_table(seed_rows,
                       columns=["seed", "unicast_lat", "bcast_lat",
                                "accepted", "saturated"]))
    rows = rs.class_rows()
    if rows:
        print()
        print("per-class breakdown (means over replicates):")
        print(format_table(rows))
    return 0


def _cmd_scenarios(args) -> int:
    from repro.workloads import get_scenario, scenario_table
    if args.action == "show":
        if not args.name:
            print("usage: repro scenarios show <name>", file=sys.stderr)
            return 2
        info = get_scenario(args.name)
        print(f"{info.name}  [{info.kind}]")
        print(f"  {info.summary}")
        if info.aliases:
            print(f"  aliases: {', '.join(info.aliases)}")
        for key, doc in info.params.items():
            req = " [required]" if key in info.required else ""
            print(f"  {key:<12s} {doc}{req}")
        print(f"  example: {info.spec_example()}")
        return 0
    print(scenario_table())
    return 0


def _cmd_trace(args) -> int:
    from dataclasses import asdict

    from repro.experiments.latency import run_point
    from repro.sim.session import RunConfig, SimulationSession
    from repro.workloads import Trace, TraceRecorder

    if args.trace_action == "record":
        rate = _resolve_rate(args)
        if rate is None:
            return 2
        spec = WorkloadSpec.parse(
            kind=args.kind, n=args.nodes,
            msg_len=args.msg_len, beta=args.beta,
            rate=rate, cycles=args.cycles,
            warmup=args.warmup, seed=args.seed,
            pattern=args.pattern, arrival=args.arrival,
            workload=args.workload, faults=args.faults)
        session = SimulationSession(
            RunConfig(spec=spec, backend=args.backend))
        recorder = TraceRecorder.attach(session.mix,
                                        meta={"spec": asdict(spec)})
        summary = session.run()
        path = recorder.trace().save(args.out)
        print(format_table([summary.row()]))
        _print_class_table(summary)
        print(f"[trace] {path} ({len(recorder.events)} arrivals)")
        if "," in path:
            print("warning: path contains a comma; 'repro trace replay' "
                  "and 'trace:path=...' specs will not accept it",
                  file=sys.stderr)
        return 0

    # replay: recording metadata supplies the defaults, explicit flags
    # override (flags default to None, so explicit vs absent is clear)
    if "," in args.path:
        print(f"error: trace path {args.path!r} contains a comma, which "
              f"the scenario spec grammar reserves as the parameter "
              f"separator; rename or copy the file", file=sys.stderr)
        return 2
    trace = Trace.load(args.path)
    fields = dict(kind="quarc", n=trace.n, msg_len=16, beta=0.05,
                  rate=0.0, cycles=8000, warmup=2000, seed=1,
                  pattern="uniform")
    fields.update(dict(trace.meta.get("spec") or {}))
    overrides = {"kind": args.kind, "n": args.nodes,
                 "msg_len": args.msg_len, "beta": args.beta,
                 "seed": args.seed, "cycles": args.cycles,
                 "warmup": args.warmup, "pattern": args.pattern}
    fields.update({k: v for k, v in overrides.items() if v is not None})
    fields["arrival"] = f"trace:path={args.path}"
    # a recording of a multi-class run is replayed from its v2 events
    # (destination/class/size per arrival), not by re-resolving the
    # workload -- the trace is self-contained
    fields["workload"] = ""
    if trace.version == 2 and (args.pattern is not None
                               or args.seed is not None):
        print("note: v2 traces replay the recorded destinations/"
              "classes/sizes verbatim; --pattern and --seed do not "
              "change the traffic", file=sys.stderr)
    s = run_point(WorkloadSpec.parse(**fields), backend=args.backend)
    print(format_table([s.row()]))
    _print_class_table(s)
    print(f"[trace] replayed {len(trace)} arrivals from {args.path}")
    return 0


def _cmd_figure(args, fig: str) -> int:
    rows = _driver(f"run_{fig}")(
        fast=not args.full, backend=args.backend, workers=args.workers,
        replicates=args.replicates)
    path = args.csv or os.path.join("results", f"{fig}.csv")
    print(format_table(rows))
    print(f"[csv] {write_csv(rows, path)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:
        # how spec parsing, the scenario registry and the session's
        # _AXIS_RULES reject a command line: usage, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> NoReturn:
    """The process entry: :func:`main`, then exit without the shutdown
    collections (see "Process exit" above)."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "info":
        return _cmd_info(args)
    if cmd == "sweep":
        return _cmd_sweep(args)
    if cmd == "run":
        return _cmd_point(args)
    if cmd == "scenarios":
        return _cmd_scenarios(args)
    if cmd == "trace":
        return _cmd_trace(args)
    if cmd in ("table1", "fig12"):
        print(format_table(_driver(f"run_{cmd}")()))
        return 0
    if cmd in ("fig9", "fig10", "fig11"):
        return _cmd_figure(args, cmd)
    raise AssertionError(f"unhandled command {cmd}")   # pragma: no cover


if __name__ == "__main__":      # pragma: no cover
    entry()
