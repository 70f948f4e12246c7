"""Staged child of the end-to-end benchmark.

Makes the public calls ``python -m repro <argv>`` makes -- ``import
repro.cli``, ``build_parser``, ``WorkloadSpec.parse``,
``SimulationSession(RunConfig(...))``, ``.run()``; ``default_rates`` and
``compare_networks(...)`` for ``sweep`` -- with a wall-clock and a CPU
stamp between the stages, and prints one JSON object as its last line
of output.

``--trace`` additionally records spans around those calls (see
``spans.py``) by wrapping module attributes and classes *in this process
only*, turns on the shipped phase profiler, and reports both.
``--probe`` only imports the CLI and loads the C cycle kernel.
"""

from time import perf_counter

T_START = perf_counter()

import argparse     # noqa: E402
import builtins     # noqa: E402
import dataclasses  # noqa: E402
import json         # noqa: E402
import resource     # noqa: E402
import sys          # noqa: E402
import time         # noqa: E402
from contextlib import nullcontext  # noqa: E402


def stamp():
    """``(wall, cpu)``: ``perf_counter()`` and the CPU seconds, user +
    system, this process and the children it has waited for (shard
    workers) have used since it started."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (perf_counter(),
            time.process_time() + kids.ru_utime + kids.ru_stime)


def _traced_import(tracer):
    """Span the first import of each third-party root package, so the
    incremental cost of ``import repro.cli`` is its span's self time --
    and a package repro stops importing eagerly drops to zero."""
    real = builtins.__import__

    def hook(name, globals=None, locals=None, fromlist=(), level=0):
        root = name.partition(".")[0]
        if (level == 0 and root in ("numpy", "networkx")
                and root not in sys.modules):
            with tracer.span("import." + root):
                return real(name, globals, locals, fromlist, level)
        return real(name, globals, locals, fromlist, level)
    return real, hook


def _instrument(tracer, cells):
    """Wrap the layer boundaries.  Names are the ones the callers look
    up at call time (lazy ``from x import y`` inside functions reads the
    module attribute; ``session`` and ``array_backend`` bound theirs at
    import, so those bindings are the ones replaced)."""
    import repro.core.api as api
    import repro.noc.router as router
    import repro.sim.array_backend as array_backend
    import repro.sim.replication as replication
    import repro.sim.session as session
    import repro.sim.shard.runner as shard_runner
    import repro.traffic.mix as mix
    import repro.workloads.registry as registry
    from repro.traffic.workload import WorkloadSpec

    api.build_network = tracer.wrap(api.build_network,
                                    "core.build_network")
    session.make_backend = tracer.wrap(session.make_backend,
                                       "array.build")
    array_backend.load_cycle_kernel = tracer.wrap(
        array_backend.load_cycle_kernel, "ckernel.load")
    shard_runner.run_sharded = tracer.wrap(shard_runner.run_sharded,
                                           "shard.run")
    for name in ("resolve_pattern", "resolve_arrival",
                 "resolve_workload"):
        setattr(registry, name, tracer.wrap(getattr(registry, name),
                                            "workloads.resolve"))
    WorkloadSpec.parse = classmethod(tracer.wrap(
        WorkloadSpec.parse.__func__, "workloads.resolve"))
    mix.TrafficMix.__init__ = tracer.wrap(mix.TrafficMix.__init__,
                                          "traffic.mix_build")
    engine = replication.ExecutionEngine
    engine.imap = tracer.wrap_iter(engine.imap, "replication.execute")

    backend = array_backend.ArrayBackend
    backend.step = tracer.count(backend.step, "array.step")
    todo, seen = [router.Router], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        if "route_head" in vars(cls):
            cls.route_head = tracer.count(cls.route_head,
                                          "core.route_head")

    sess = session.SimulationSession
    sess.__init__ = tracer.wrap(sess.__init__, "session.build")
    sess.summary = tracer.wrap(sess.summary, "session.summary")
    run = tracer.wrap(sess.run, "session.run")

    def run_and_keep(self):
        summary = run(self)
        cells.append({k: getattr(summary, k) for k in (
            "flits_moved", "delivered_msgs", "generated_msgs",
            "unicast_mean", "accepted_rate", "saturated")})
        return summary
    sess.run = run_and_keep


def _probe() -> dict:
    import repro.cli  # noqa: F401
    from repro.sim.ckernel import load_cycle_kernel
    t0 = perf_counter()
    loaded = load_cycle_kernel() is not None
    return {"kernel_loaded": loaded, "load_s": perf_counter() - t0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, default=T_START,
                    help="parent's perf_counter() at spawn")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", default="",
                    help="workload name; turns the traced pass on")
    ap.add_argument("argv", nargs="*")
    opts = ap.parse_args()
    if opts.probe:
        print(json.dumps(_probe()))
        return 0

    tracer = None
    cells = []
    if opts.trace:
        from spans import Tracer
        tracer = Tracer(opts.trace, opts.t0)
        tracer.add("import.python", opts.t0, T_START)
        real_import, builtins.__import__ = _traced_import(tracer)
        with tracer.span("import.repro"):
            import repro.cli
        builtins.__import__ = real_import
        _instrument(tracer, cells)
    import repro.cli
    from repro.obs import obs_from_args
    from repro.sim.ckernel import load_cycle_kernel
    from repro.sim.session import RunConfig, SimulationSession
    from repro.traffic.workload import WorkloadSpec

    with tracer.span("cli.parse") if tracer else nullcontext():
        args = repro.cli.build_parser().parse_args(opts.argv)
    out = {"argv": opts.argv}
    if args.command == "run":
        args.profile = bool(tracer)
        spec = WorkloadSpec.parse(
            kind=args.kind, n=args.nodes, msg_len=args.msg_len,
            beta=args.beta,
            rate=1.0 if args.rate is None else args.rate,
            cycles=args.cycles, warmup=args.warmup, seed=args.seed,
            pattern=args.pattern, arrival=args.arrival,
            workload=args.workload, faults=args.faults)
        session = SimulationSession(
            RunConfig(spec=spec, backend=args.backend,
                      obs=obs_from_args(args),
                      shard_workers=args.shard_workers))
        setup = run0 = stamp()
        if tracer:
            if session.net.on_tail is not None:
                session.net.on_tail = tracer.count(
                    session.net.on_tail, "workloads.closedloop.on_tail",
                    timed=True)
            if args.shard_workers > 1:
                from repro.sim.shard.partition import make_plan
                plan = make_plan(session.net, session.topo,
                                 session.backend, args.shard_workers)
                out["cut_row_share"] = (len(plan.pub_rows)
                                        / (plan.b2 - 2))
            run0 = stamp()
        summary = session.run()
        run1 = stamp()
        out["summary"] = dataclasses.asdict(summary)
        out["rows"] = [summary.row()]
        if session.profiler is not None:
            out["profile"] = session.profiler.report()
    elif args.command == "sweep":
        from repro.experiments.figures import latency_rows
        from repro.experiments.sweep import (compare_networks,
                                             default_rates)
        setup = run0 = stamp()
        if tracer:
            compare_networks = tracer.wrap(compare_networks,
                                           "experiments.sweep")
        results = compare_networks(
            args.nodes, args.msg_len, args.beta,
            rates=default_rates(args.nodes, args.msg_len, args.beta,
                                args.points),
            cycles=args.cycles, warmup=args.warmup, seed=args.seed,
            backend=args.backend, workers=args.workers,
            replicates=args.replicates, pattern=args.pattern,
            arrival=args.arrival, workload=args.workload,
            faults=args.faults, shard_workers=args.shard_workers)
        run1 = stamp()
        out["summary"] = {kind: [dataclasses.asdict(s) for s in runs]
                          for kind, runs in results.items()}
        out["rows"] = latency_rows(results, "")
    else:
        raise SystemExit(f"child.py: unsupported command {args.command}")

    out["kernel_loaded"] = load_cycle_kernel() is not None
    end = stamp()
    # wall seconds since the parent spawned this child; CPU seconds
    # since the process started
    out["t"] = {"start": T_START - opts.t0, "setup": setup[0] - opts.t0,
                "run0": run0[0] - opts.t0, "run1": run1[0] - opts.t0,
                "end": end[0] - opts.t0}
    out["cpu"] = {"setup": setup[1], "run0": run0[1], "run1": run1[1],
                  "end": end[1]}
    if tracer:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
        out["cells"] = cells
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
