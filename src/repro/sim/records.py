"""Record types shared by the simulator, experiments and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["RunSummary"]


@dataclass
class RunSummary:
    """Aggregate results of one simulation point.

    All latencies are in simulator cycles and include source queueing (the
    paper measures from message generation, which is what exposes the
    one-port vs all-port difference).
    """

    noc: str
    n: int                        # network size
    msg_len: int                  # M, flits per packet
    bcast_frac: float             # beta
    offered_rate: float           # messages / node / cycle
    cycles: int
    warmup: int
    seed: int

    unicast_mean: float = 0.0
    unicast_ci: Optional[Tuple[float, float]] = None
    unicast_samples: int = 0
    unicast_max: float = 0.0

    bcast_mean: float = 0.0       # completion latency (last receiver)
    bcast_ci: Optional[Tuple[float, float]] = None
    bcast_samples: int = 0
    bcast_delivery_mean: float = 0.0   # mean over individual deliveries

    generated_msgs: int = 0
    delivered_msgs: int = 0
    accepted_rate: float = 0.0    # delivered msgs / node / cycle
    flits_moved: int = 0
    in_flight_at_end: int = 0
    saturated: bool = False       # backlog still growing at end of run

    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def per_class(self) -> Dict[str, Dict[str, object]]:
        """Per-traffic-class breakdown of a multi-class run (empty for
        the paper's single-class workload).  Keys are class names; each
        value carries ``generated`` / ``delivered`` / ``latency_mean`` /
        ``samples`` (plus ``cast`` / ``msg_len`` / ``rate`` when the
        class declarations are known).  Lives in ``extra`` so untagged
        summaries -- and their golden fixtures -- keep their exact
        pre-multi-class shape."""
        return self.extra.get("classes", {})

    def class_rows(self) -> list:
        """Flat per-class dict rows for CSV emission / CLI tables
        (empty for single-class runs).  Closed-loop classes add
        transaction columns; open classes leave them blank."""
        rows = []
        for name, info in self.per_class.items():
            closed = "completed" in info
            rows.append({
                "noc": self.noc,
                "class": name,
                "cast": info.get("cast", "?"),
                "M": info.get("msg_len", ""),
                "rate": info.get("rate", ""),
                "generated": info.get("generated", 0),
                "delivered": info.get("delivered", 0),
                "latency": round(float(info.get("latency_mean", 0.0)), 2),
                "samples": info.get("samples", 0),
                "completed": info["completed"] if closed else "",
                "completion": (round(float(info["completion_mean"]), 2)
                               if closed else ""),
            })
        return rows

    def row(self) -> Dict[str, object]:
        """Flat dict for CSV emission."""
        row: Dict[str, object] = {
            "noc": self.noc,
            "N": self.n,
            "M": self.msg_len,
            "beta": self.bcast_frac,
            "rate": self.offered_rate,
            "unicast_lat": round(self.unicast_mean, 2),
            "bcast_lat": round(self.bcast_mean, 2),
            "accepted": round(self.accepted_rate, 5),
            "unicast_n": self.unicast_samples,
            "bcast_n": self.bcast_samples,
            "saturated": int(self.saturated),
        }
        if "sat_onset" in self.extra:
            # probe-derived saturation-onset cycle (-1 = never); only
            # present when the run sampled an ``inflight`` probe, so
            # probe-less tables keep their exact column set
            row["sat_onset"] = self.extra["sat_onset"]
        if "faults" in self.extra:
            # delivered-vs-dropped split of a faulted run; fault-free
            # tables keep their exact column set
            fx = self.extra["faults"]
            row["dropped"] = fx.get("dropped_msgs", 0)
            row["dead_links"] = fx.get("dead_links", 0)
            row["dead_routers"] = len(fx.get("dead_routers", ()))
        return row
