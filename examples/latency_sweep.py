#!/usr/bin/env python
"""A miniature Fig.-9-style latency/load sweep with an ASCII plot.

Sweeps injection rate on Quarc and Spidergon (N=16, M=16, beta=5%) and
renders latency-vs-load curves in the terminal, including the analytical
model's saturation estimate for context.  Every point runs through
:class:`~repro.sim.session.SimulationSession` via ``compare_networks``,
so the sweep accepts a workload scenario: pass a different
``pattern``/``arrival`` spec string (see ``repro scenarios list``) to
re-ask the paper's question under hotspot or bursty traffic.

Run:  python examples/latency_sweep.py
"""

from repro.analysis import saturation_rate
from repro.experiments.ascii_plot import ascii_curves
from repro.experiments.csvout import format_table
from repro.experiments.figures import curves_from_rows, latency_rows
from repro.experiments.sweep import compare_networks

N, M, BETA = 16, 16, 0.05


def main(cycles: int = 8_000, warmup: int = 2_000, points: int = 5,
         pattern: str = "uniform", arrival: str = "bernoulli") -> None:
    rates = [round(r * 0.004, 4) for r in range(1, points + 1)]
    print(f"sweeping N={N} M={M} beta={BETA:g} at rates {rates} "
          f"(pattern={pattern}, arrival={arrival})")
    for kind in ("quarc", "spidergon"):
        print(f"  analytic saturation ({kind}): "
              f"{saturation_rate(kind, N, M, BETA):.4f} msg/node/cycle")

    results = compare_networks(N, M, BETA, rates=rates,
                               cycles=cycles, warmup=warmup, verbose=True,
                               pattern=pattern, arrival=arrival)
    rows = latency_rows(results, config_label=f"N={N} M={M}")

    print()
    print(format_table(rows, columns=["noc", "rate", "unicast_lat",
                                      "bcast_lat", "accepted",
                                      "saturated"]))
    for metric, label in (("unicast_lat", "unicast"),
                          ("bcast_lat", "broadcast")):
        print()
        print(ascii_curves(curves_from_rows(rows, metric),
                           title=f"{label} latency vs offered load"))


if __name__ == "__main__":
    main()
