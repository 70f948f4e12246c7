"""The seven named workloads of the end-to-end benchmark.

Each is a command a user types (``python -m repro <argv>``); the staged
child parses the very same argv with ``repro.cli.build_parser``, so the
two child kinds cannot drift apart.  ``--seed`` of the harness is added
to each workload's base seed.  See README.md for why each one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["Workload", "WORKLOADS", "BY_NAME"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                     # one line, also BENCHMARK.json's "why"
    loop: str                    # open / closed loop, rate or clients
    argv: str                    # after ``python -m repro``, no seed
    base_seed: int               # the harness --seed is added to this
    saturated: Optional[bool]    # expected flag; None: varies by cell
    timeout_s: float = 60.0

    def cli_argv(self, seed: int) -> List[str]:
        return self.argv.split() + ["--seed", str(self.base_seed + seed)]

    @property
    def command(self) -> str:
        return self.argv.split()[0]

    @property
    def cycles(self) -> int:
        """Simulated cycles per run (per cell of a sweep)."""
        words = self.argv.split()
        return int(words[words.index("--cycles") + 1])


_Q64 = "run --backend array --kind quarc -n 64"

WORKLOADS = (
    Workload(
        "short_quarc64",
        "ROADMAP headline command: interpreter, imports and CLI "
        "dominate, the cycle loop does little",
        "open loop, Bernoulli 0.0138 msg/node/cycle (saturated)",
        f"{_Q64} -M 16 --beta 0 --rate 0.0138 --cycles 6000 "
        "--warmup 1500",
        base_seed=0, saturated=True),
    Workload(
        "sat_quarc64_long",
        "saturated Quarc, long horizon: C kernel, event replay, fold "
        "and inject dominate, set-up is small",
        "open loop, Bernoulli 0.0138 msg/node/cycle (saturated)",
        f"{_Q64} -M 16 --beta 0 --rate 0.0138 --cycles 40000 "
        "--warmup 1500",
        base_seed=0, saturated=True),
    Workload(
        "idle_quarc64_long",
        "low load: fast-forward, precomputed arrivals and sparse steps "
        "carry the run, most cycles are skipped",
        "open loop, Bernoulli 0.0002 msg/node/cycle (idle)",
        f"{_Q64} -M 8 --beta 0 --rate 0.0002 --cycles 1000000 "
        "--warmup 5000",
        base_seed=0, saturated=False),
    Workload(
        "build_quarc384",
        "construction-dominated: route-table probe and static-geometry "
        "build of the array engine, short run",
        "open loop, Bernoulli 0.0026 msg/node/cycle (saturated)",
        "run --backend array --kind quarc -n 384 -M 16 --beta 0 "
        "--rate 0.0026 --cycles 3000 --warmup 600",
        base_seed=0, saturated=True),
    Workload(
        "closed_coherence_quarc64",
        "closed loop: reactive mix bypasses fast-forward, per-cycle "
        "generate plus net.on_tail feedback in Python",
        "closed loop, 64 clients x window 4 outstanding requests",
        f"{_Q64} --workload cache_coherence:window=4 --cycles 12000 "
        "--warmup 1200",
        base_seed=0, saturated=False),
    Workload(
        "fig9_panel_m16",
        "the M=16 panel of Fig. 9 as repro sweep: 10 small build+run "
        "cells through experiments and replication, per-cell overhead "
        "decides it",
        "open loop, Bernoulli, 5 rates x 2 networks (Quarc, Spidergon), "
        "N=16",
        "sweep --backend array --workers 1 -n 16 -M 16 --beta 0.05 "
        "--points 5 --cycles 8000 --warmup 2000",
        base_seed=0, saturated=None),
    Workload(
        "shard2_torus256",
        "sharded engine with 2 workers: replica build, halo exchange, "
        "barrier and merge dominate; only torus (dateline VC) run",
        "open loop, Bernoulli 0.006 msg/node/cycle, 5% broadcast "
        "(saturated)",
        "run --backend array --kind torus -n 256 -M 16 --beta 0.05 "
        "--rate 0.006 --cycles 3000 --warmup 600 --shard-workers 2",
        base_seed=10, saturated=True),
)

BY_NAME = {w.name: w for w in WORKLOADS}
