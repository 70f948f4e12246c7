"""Shared helpers for the benchmark harness.

Importable as a plain module (``from benchlib import emit``) so the
helpers cannot shadow a ``conftest`` from another test root -- the seed
layout broke ``pytest`` collection exactly that way.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

from repro.experiments.csvout import format_table, write_csv

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def emit(name: str, rows: Sequence[Dict[str, object]],
         title: str = "") -> None:
    """Print the table and persist the CSV."""
    path = write_csv(list(rows), os.path.join(RESULTS_DIR, f"{name}.csv"))
    print()
    print(f"=== {title or name} ===")
    print(format_table(list(rows)))
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

