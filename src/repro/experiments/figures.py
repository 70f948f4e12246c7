"""Drivers for every figure and table in the paper's evaluation.

Each ``run_*`` function regenerates one artefact as a list of dict rows
(CSV-ready) and returns enough structure for the benchmarks to assert the
paper's qualitative claims.  ``fast=True`` (the default) runs a reduced
grid sized for CI; ``fast=False`` (``repro fig9 --full`` etc.) runs the
full grids.

Paper artefacts:

* Fig. 9  -- latency vs rate, N=16, beta=5%, M in {8, 16, 32}
* Fig. 10 -- latency vs rate, M=16, beta=10%, N in {16, 32, 64},
  simulation overlaid with the analytical model
* Fig. 11 -- latency vs rate, N=64, M=16, beta in {0%, 5%, 10%}
* Table 1 -- module-wise slices of the 32-bit Quarc switch
* Fig. 12 -- switch slices vs flit width, Quarc vs Spidergon
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis import (predict_broadcast_latency,
                            predict_unicast_latency)
from repro.experiments.sweep import (compare_networks, default_rates,
                                     sweep_scenarios)
from repro.hw.report import cost_sweep, table1
from repro.sim.backend import DEFAULT_BACKEND
from repro.sim.records import RunSummary
from repro.traffic.workload import WorkloadSpec

__all__ = ["latency_rows", "app_scenario_rows",
           "run_fig9", "run_fig10", "run_fig11", "run_app_scenarios",
           "run_table1", "run_fig12", "curves_from_rows",
           "bands_from_rows"]

#: row metric column -> its CI-half-width column (present on rows that
#: came from a ReplicatedSummary; absent on single-seed rows)
_CI_COLUMNS = {"unicast_lat": "unicast_ci95", "bcast_lat": "bcast_ci95"}


def _grid(fast: bool) -> Tuple[int, int, int]:
    """(rate points, cycles, warmup): the CI grid, or the full one."""
    return (5, 8_000, 2_000) if fast else (8, 20_000, 5_000)


def latency_rows(results: Dict[str, List],
                 config_label: str) -> List[Dict[str, object]]:
    """Flatten a compare_networks() result into CSV rows.

    Works for single-seed sweeps (:class:`RunSummary` rows) and
    replicated sweeps (:class:`~repro.sim.replication.
    ReplicatedSummary` rows, which add ``unicast_ci95`` /
    ``bcast_ci95`` half-width and ``replicates`` columns -- the CI
    error bands of the figures/CSVs)."""
    rows: List[Dict[str, object]] = []
    for kind, summaries in results.items():
        for s in summaries:
            row = s.row()
            row["config"] = config_label
            rows.append(row)
    return rows


def curves_from_rows(rows: Sequence[Dict[str, object]],
                     metric: str = "unicast_lat"
                     ) -> Dict[str, List[Tuple[float, float]]]:
    """Group rows into {"<noc> <config>": [(rate, latency), ...]}."""
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        label = f"{row['noc']} {row.get('config', '')}".strip()
        curves.setdefault(label, []).append(
            (float(row["rate"]), float(row[metric])))  # type: ignore[arg-type]
    return curves


def bands_from_rows(rows: Sequence[Dict[str, object]],
                    metric: str = "unicast_lat"
                    ) -> Dict[str, List[Tuple[float, float, float]]]:
    """Group replicated rows into 95%-CI bands for the ASCII plots:
    ``{label: [(rate, lo, hi), ...]}``.  Rows without a CI column (or
    with a blank one -- e.g. the analytic-model overlay rows) are
    skipped, so the result is empty for single-seed sweeps."""
    ci_col = _CI_COLUMNS.get(metric)
    bands: Dict[str, List[Tuple[float, float, float]]] = {}
    if ci_col is None:
        return bands
    for row in rows:
        half = row.get(ci_col, "")
        if half in ("", None):
            continue
        label = f"{row['noc']} {row.get('config', '')}".strip()
        mean = float(row[metric])            # type: ignore[arg-type]
        bands.setdefault(label, []).append(
            (float(row["rate"]),             # type: ignore[arg-type]
             mean - float(half), mean + float(half)))
    return bands


# ----------------------------------------------------------------------
# Fig. 9: message-length sweep at N=16, beta=5%
# ----------------------------------------------------------------------
def run_fig9(fast: bool = True, seed: int = 1,
             msg_lens: Sequence[int] = (8, 16, 32),
             backend: str = DEFAULT_BACKEND, workers: int = 1,
             replicates: int = 1) -> List[Dict[str, object]]:
    points, cycles, warmup = _grid(fast)
    n, beta = 16, 0.05
    rows: List[Dict[str, object]] = []
    for m in msg_lens:
        res = compare_networks(n, m, beta,
                               rates=default_rates(n, m, beta, points),
                               cycles=cycles, warmup=warmup, seed=seed,
                               backend=backend, workers=workers,
                               replicates=replicates)
        rows.extend(latency_rows(res, config_label=f"M={m}"))
    return rows


# ----------------------------------------------------------------------
# Fig. 10: network-size sweep at M=16, beta=10%, with analysis overlay
# ----------------------------------------------------------------------
def run_fig10(fast: bool = True, seed: int = 1,
              sizes: Sequence[int] = (16, 32, 64),
              backend: str = DEFAULT_BACKEND, workers: int = 1,
              replicates: int = 1) -> List[Dict[str, object]]:
    points, cycles, warmup = _grid(fast)
    m, beta = 16, 0.10
    rows: List[Dict[str, object]] = []
    for n in sizes:
        rates = default_rates(n, m, beta, points)
        res = compare_networks(n, m, beta, rates=rates,
                               cycles=cycles, warmup=warmup, seed=seed,
                               backend=backend, workers=workers,
                               replicates=replicates)
        rows.extend(latency_rows(res, config_label=f"N={n}"))
        # the paper overlays analytical curves in this figure
        for kind in ("quarc", "spidergon"):
            for r in rates:
                rows.append({
                    "noc": f"{kind}-model", "N": n, "M": m, "beta": beta,
                    "rate": r,
                    "unicast_lat": round(
                        predict_unicast_latency(kind, n, m, beta, r), 2),
                    "bcast_lat": round(
                        predict_broadcast_latency(kind, n, m, beta, r), 2),
                    "accepted": "", "unicast_n": "", "bcast_n": "",
                    "saturated": "", "config": f"N={n}",
                })
    return rows


# ----------------------------------------------------------------------
# Fig. 11: broadcast-rate sweep at N=64, M=16
# ----------------------------------------------------------------------
def run_fig11(fast: bool = True, seed: int = 1,
              betas: Sequence[float] = (0.0, 0.05, 0.10),
              n: int = 64, backend: str = DEFAULT_BACKEND,
              workers: int = 1,
              replicates: int = 1) -> List[Dict[str, object]]:
    points, cycles, warmup = _grid(fast)
    m = 16
    rows: List[Dict[str, object]] = []
    for beta in betas:
        res = compare_networks(n, m, beta,
                               rates=default_rates(n, m, beta, points),
                               cycles=cycles, warmup=warmup, seed=seed,
                               backend=backend, workers=workers,
                               replicates=replicates)
        rows.extend(latency_rows(res, config_label=f"beta={beta:g}"))
    return rows


# ----------------------------------------------------------------------
# Application scenarios: multi-class workloads, per-class breakdown
# ----------------------------------------------------------------------
#: the registered application workloads the driver compares by default
APP_WORKLOADS = ("cache_coherence:storms=true", "allreduce")

#: the closed-loop variants of the same models (window > 0 engages the
#: closed-loop application engine: request/reply windows, phased
#: iterations, completion-time reporting)
CLOSED_APP_WORKLOADS = ("cache_coherence:storms=true,window=4",
                        "allreduce:window=4,quota=12,gap=48")


def app_scenario_rows(summaries: Sequence[RunSummary]
                      ) -> List[Dict[str, object]]:
    """Flatten app-scenario summaries into per-class CSV rows: one row
    per (noc, workload, traffic class), carrying the class's cast,
    size, rate and latency next to the run's aggregate context."""
    rows: List[Dict[str, object]] = []
    for s in summaries:
        wl = s.extra.get("workload", "")
        for row in s.class_rows():
            row["workload"] = wl
            row["N"] = s.n
            row["scale"] = s.offered_rate
            row["saturated"] = int(s.saturated)
            rows.append(row)
    return rows


def run_app_scenarios(fast: bool = True, seed: int = 1,
                      n: int = 16, scale: float = 1.0,
                      workloads: Sequence[str] = APP_WORKLOADS,
                      kinds: Sequence[str] = ("quarc", "spidergon"),
                      backend: str = DEFAULT_BACKEND, workers: int = 1,
                      replicates: int = 1) -> List[Dict[str, object]]:
    """Quarc vs Spidergon on the registered application workloads
    (cache-coherence invalidation storms, ring all-reduce), reported
    per traffic class.

    Not a paper artefact -- the paper evaluates one synthetic workload
    -- but it is the paper's *motivation* (Sec. 2.2) made measurable:
    the per-class rows separate the invalidation-broadcast latency from
    the cache-line-fill latency on both architectures.
    """
    _, cycles, warmup = _grid(fast)
    base = WorkloadSpec(kind=kinds[0], n=n, msg_len=8, beta=0.0,
                        rate=scale, cycles=cycles, warmup=warmup,
                        seed=seed)
    summaries = sweep_scenarios(base, kinds=list(kinds),
                                workloads=list(workloads),
                                backend=backend, workers=workers,
                                replicates=replicates)
    return app_scenario_rows(summaries)


# ----------------------------------------------------------------------
# Table 1 and Fig. 12: area model
# ----------------------------------------------------------------------
def run_table1() -> List[Dict[str, object]]:
    t = table1(32)
    return [{"module": k, "slices": v} for k, v in t.items()]


def run_fig12(widths: Sequence[int] = (16, 32, 64)
              ) -> List[Dict[str, object]]:
    return cost_sweep(list(widths))
