"""Shared helpers for the benchmark harness.

Each ``bench_*`` file regenerates one artefact of the paper's evaluation
(figure or table), prints it, writes a CSV under ``results/`` and asserts
the paper's qualitative claims hold.  The latency figures run their
CI-sized grids; ``repro fig9 --full`` (likewise ``fig10`` / ``fig11``)
writes the full ones.

Importable as a plain module (``from benchlib import emit``) so the
helpers cannot shadow a ``conftest`` from another test root -- the seed
layout broke ``pytest`` collection exactly that way.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

from repro.experiments.ascii_plot import ascii_curves
from repro.experiments.csvout import format_table, write_csv
from repro.experiments.figures import curves_from_rows

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def emit(name: str, rows: Sequence[Dict[str, object]],
         plot_metric: str = "", title: str = "") -> None:
    """Print the table (and optional latency plot) and persist the CSV."""
    path = write_csv(list(rows), os.path.join(RESULTS_DIR, f"{name}.csv"))
    print()
    print(f"=== {title or name} ===")
    print(format_table(list(rows)))
    if plot_metric:
        sim_rows = [r for r in rows if "model" not in str(r.get("noc", ""))]
        print()
        print(ascii_curves(curves_from_rows(sim_rows, plot_metric),
                           title=f"{title or name} -- {plot_metric}"))
    print(f"[csv] {os.path.normpath(path)}")


def backend_equivalence_failures(run_matrix, label, smoke: bool,
                                 reference=None,
                                 workers: int = 1,
                                 **matrix_kwargs) -> List[str]:
    """Run ``run_matrix(smoke=..., backend=..., workers=...)`` once per
    optimized backend and compare every cell against the ``reference``
    matrix (full ``RunSummary`` equality); returns failure messages.

    Shared by the scenario-matrix and app-scenario benches so the
    equivalence gate cannot drift between them.  ``label(summary)``
    renders one cell's name; pass an already-computed ``reference``
    matrix to avoid re-running it.  Extra keyword arguments are
    forwarded to ``run_matrix`` (e.g. a workload-list override).
    """
    from repro.sim.backend import BACKENDS
    failures: List[str] = []
    ref = reference if reference is not None else run_matrix(
        smoke=smoke, backend="reference", workers=workers,
        **matrix_kwargs)
    for backend in sorted(BACKENDS):
        if backend == "reference":
            continue
        got = run_matrix(smoke=smoke, backend=backend, workers=workers,
                         **matrix_kwargs)
        if len(got) != len(ref):
            failures.append(
                f"[{backend}]: matrix size {len(got)} != reference "
                f"{len(ref)}")
            continue
        for r, a in zip(ref, got):
            if r != a:
                failures.append(f"{label(r)} [{backend}]: "
                                f"backends disagree")
    return failures


def finite(rows: List[Dict[str, object]], noc: str, metric: str,
           config: str = "") -> List[float]:
    """Collect the finite, measured values of one curve."""
    out = []
    for r in rows:
        if r["noc"] != noc:
            continue
        if config and r.get("config") != config:
            continue
        v = r.get(metric)
        if isinstance(v, (int, float)) and v > 0 and not r.get("saturated"):
            out.append(float(v))
    return out
