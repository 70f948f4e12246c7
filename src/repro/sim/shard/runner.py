"""Sharded-run orchestration: validate, partition, drive, merge.

:func:`run_sharded` is the entry point :meth:`SimulationSession.run`
dispatches to when ``shard_workers > 1``.  Every worker -- the parent
included -- builds its *own* session from the same :class:`RunConfig`
(construction is deterministic, so all replicas agree on geometry and
RNG streams) and animates one shard of it (:mod:`.worker`).  Two
drive modes:

* **fork** (default): the parent forks ``W - 1`` children sharing one
  shared-memory halo slab (:class:`.transport.ForkShmTransport`); the
  parent itself runs shard 0 on the master session, then collects each
  child's pickled result stream over a pipe.  Plain ``os.fork`` (not a
  ``multiprocessing`` pool) so sharded runs compose with the
  replication pool's daemonic workers.
* **in-process** (``REPRO_SHARD_INPROC=1``, or platforms without
  ``fork``): all workers live in this process and are driven in
  lockstep -- same numerics through the same transport contract, used
  by the equivalence tests and the differential harness.

The merge then replays the recorded delivery events into the master
session's *real* collector in exact serial order -- ascending
``(cycle, shard, within-shard sequence)`` equals the serial engine's
ascending-port delivery order because shard port ranges are contiguous
and ascending -- so every float accumulates in the reference order and
``session.summary()`` is byte-identical to the unsharded run.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import replace
from typing import Dict, List

from repro.noc.packet import CollectiveOp
from repro.sim.shard.partition import make_plan
from repro.sim.shard.transport import ForkShmTransport, InprocTransport
from repro.sim.shard.worker import ShardWorker

__all__ = ["run_sharded"]


def run_sharded(session):
    """Run ``session`` split across ``config.shard_workers`` shards and
    return the merged :class:`~repro.sim.records.RunSummary`."""
    _validate(session)
    plan = make_plan(session.net, session.topo, session.backend,
                     session.config.shard_workers)
    inproc = (os.environ.get("REPRO_SHARD_INPROC") == "1"
              or not hasattr(os, "fork"))
    if inproc:
        return _run_inproc(session, plan)
    return _run_fork(session, plan)


def _validate(session) -> None:
    # every other shard rejection is decided at session construction
    # (``session._AXIS_RULES``); a hook can be installed after it
    if session.net.on_tail is not None:
        raise ValueError(
            "--shard-workers does not compose with net.on_tail hooks")


def _make_worker(session, plan, w: int, transport) -> ShardWorker:
    return ShardWorker(session, plan, w, transport,
                       session._probe_schedule())


def _replica_session(config):
    from repro.sim.session import SimulationSession
    return SimulationSession(replace(config, shard_workers=1))


def _drive(worker, cycles: int) -> None:
    for t in range(cycles):
        worker.do_cycle(t)
    worker.finish()


# ----------------------------------------------------------------------
# in-process mode
# ----------------------------------------------------------------------
def _run_inproc(session, plan):
    config = session.config
    cycles = config.spec.cycles
    transport = InprocTransport(plan)
    sessions = [session]
    for _w in range(1, plan.shards):
        sessions.append(_replica_session(config))
    workers = [_make_worker(s, plan, w, transport)
               for w, s in enumerate(sessions)]
    for t in range(cycles):
        for wk in workers:
            wk.do_cycle(t)
    for wk in workers:
        wk.finish()
    _merge(session, [wk.results() for wk in workers])
    return session.summary()


# ----------------------------------------------------------------------
# fork mode
# ----------------------------------------------------------------------
def _write_msg(fd: int, payload: bytes) -> None:
    view = memoryview(len(payload).to_bytes(8, "little") + payload)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytes:
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 20))
        if not chunk:
            raise EOFError("shard result pipe closed early")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _child_main(config, plan, w: int, transport, wfd: int) -> None:
    session = _replica_session(config)
    worker = _make_worker(session, plan, w, transport)
    _drive(worker, config.spec.cycles)
    _write_msg(wfd, pickle.dumps(("ok", worker.results()),
                                 protocol=pickle.HIGHEST_PROTOCOL))


def _run_fork(session, plan):
    config = session.config
    children: List[tuple] = []          # (pid, read_fd)
    reaped: Dict[int, int] = {}         # pid -> exit status
    transport = ForkShmTransport(plan)
    try:
        for w in range(1, plan.shards):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:                # ---- child: shard w ----
                code = 1
                try:
                    os.close(rfd)
                    _child_main(config, plan, w, transport, wfd)
                    code = 0
                except BaseException:
                    import traceback
                    try:
                        _write_msg(wfd, pickle.dumps(
                            ("err", traceback.format_exc())))
                    except BaseException:   # pragma: no cover
                        pass
                finally:
                    # skip all interpreter teardown: the parent owns
                    # the shm segment and its resource registration
                    os._exit(code)
            os.close(wfd)
            children.append((pid, rfd))

        def liveness():
            for pid, _rfd in children:
                if pid in reaped:
                    continue
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    reaped[pid] = status
                    if status != 0:
                        raise RuntimeError(
                            f"shard worker pid {pid} died "
                            f"(status {status}) before finishing")

        transport.set_liveness(liveness)
        worker = _make_worker(session, plan, 0, transport)
        _drive(worker, config.spec.cycles)
        results = [worker.results()]
        for pid, rfd in children:
            size = int.from_bytes(_read_exact(rfd, 8), "little")
            status, payload = pickle.loads(_read_exact(rfd, size))
            os.close(rfd)
            if status != "ok":
                raise RuntimeError(
                    f"shard worker pid {pid} failed:\n{payload}")
            results.append(payload)
            if pid not in reaped:
                reaped[pid] = os.waitpid(pid, 0)[1]
    except BaseException:
        for pid, rfd in children:
            if pid not in reaped:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:         # pragma: no cover
                    pass
        raise
    finally:
        transport.close()
    _merge(session, results)
    return session.summary()


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
def _merge(session, results: List[dict]) -> None:
    """Fold per-shard results into the master session so that
    :meth:`session.summary` reads exactly the serial run's state."""
    # global collective-op replicas (origin shards shipped declarations)
    ops: Dict[int, CollectiveOp] = {}
    for res in results:
        for gid, (src, created, expected, kind, cls) in res["ops"].items():
            op = CollectiveOp(src, created, expected, kind)
            op.cls = cls
            ops[gid] = op

    # delivery replay in exact serial order: (cycle, shard, seq) ==
    # ascending global port order within each cycle
    tagged = []
    for w, res in enumerate(results):
        for seq, ev in enumerate(res["events"]):
            tagged.append((ev[1], w, seq, ev))
    tagged.sort(key=lambda item: (item[0], item[1], item[2]))
    coll = session.collector
    for _now, _w, _seq, ev in tagged:
        if ev[0] == "u":
            coll.on_unicast_cols(ev[2], ev[3], ev[1])
        else:
            coll.on_collective_tail(ops[ev[3]], ev[2], ev[1])

    # integer counters: straight sums, assigned (the master's own
    # counters only covered shard 0)
    coll.generated_unicast = sum(r["note_generated"][0] for r in results)
    coll.generated_collective = sum(r["note_generated"][1]
                                    for r in results)
    coll.relay_segments = sum(r["relay_segments"] for r in results)
    mix = session.mix
    mix.generated_unicasts = sum(r["mix_counters"][0] for r in results)
    mix.generated_broadcasts = sum(r["mix_counters"][1] for r in results)
    cg = dict(results[0]["mix_counters"][2])
    for res in results[1:]:
        for name, count in res["mix_counters"][2].items():
            cg[name] = cg.get(name, 0) + count
    mix.class_generated = cg
    net = session.net
    net.flits_moved = sum(r["net_counters"][0] for r in results)
    net.deliveries = sum(r["net_counters"][1] for r in results)
    session.backend._inflight = sum(r["total_flits"] for r in results)
    session.backend._staged.clear()
    session._backlog_mid = sum(r["backlog_mid"] for r in results)

    # probe streams: raw integer samples over owned state, so shard
    # streams sum element-wise to the serial stream
    if session.probe_set is not None:
        master = session.probe_set.records
        for res in results[1:]:
            for rec, other in zip(master, res["probe_records"]):
                rec["data"] = _merge_probe_data(rec["data"],
                                                other["data"])
    if session.profiler is not None:
        session.profiler = _MergedProfiler(
            [r["profile"] for r in results if r["profile"] is not None])


def _merge_probe_data(a, b):
    if isinstance(a, list):
        return [_merge_probe_data(x, y) for x, y in zip(a, b)]
    if isinstance(a, dict):
        return {k: _merge_probe_data(a[k], b[k]) for k in a}
    return a + b


class _MergedProfiler:
    """Summed per-shard profile; duck-types the parts of
    :class:`~repro.obs.profiler.PhaseProfiler` the CLI touches
    (``report`` / ``render`` / ``finish``).  Wall times are per-shard
    and overlap, so ``run_s`` is the max (the critical path) while
    category seconds are summed CPU time across shards."""

    def __init__(self, reports: List[dict]):
        base = reports[0]
        cats: Dict[str, float] = {}
        kcs: Dict[str, object] = {}
        run_s = 0.0
        for rep in reports:
            run_s = max(run_s, rep["run_s"])
            for cat, s in rep["categories"].items():
                cats[cat] = cats.get(cat, 0.0) + s
            kc = rep.get("kernel_counters")
            if kc:      # element-wise, the nested ``stops`` included
                kcs = _merge_probe_data(kcs, kc) if kcs else kc
        self._report = {
            "backend": base["backend"],
            "cycles": base["cycles"],
            "shards": len(reports),
            "run_s": run_s,
            "cycles_per_s": (base["cycles"] / run_s if run_s > 0
                             else 0.0),
            "categories": dict(sorted(cats.items())),
        }
        if "step" in cats:
            replay = (cats["step"] - cats.get("kernel", 0.0)
                      - cats.get("fold", 0.0))
            self._report["replay_s"] = max(replay, 0.0)
        if kcs:
            self._report.update(kernel_counters=kcs, tier=base["tier"],
                                kernel=base["kernel"],
                                footprint=base["footprint"])

    def report(self) -> dict:
        return self._report

    def render(self) -> str:
        from repro.obs.profiler import PhaseProfiler
        return PhaseProfiler.render(self)

    def finish(self) -> None:
        pass
