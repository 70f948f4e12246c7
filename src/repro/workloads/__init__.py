"""Named workload scenarios: spatial patterns x temporal arrival models
x multi-class application workloads.

The paper's figures use one workload (uniform unicasts plus a broadcast
fraction beta); this package generalises the simulator into a NoC
workload harness.  A *scenario* is resolved from a compact spec string::

    from repro.workloads import resolve_pattern, resolve_arrival
    pattern = resolve_pattern("hotspot:node=0,p=0.2", n=16)
    arrival = resolve_arrival("bursty:on=0.3,len=8")

and plugs straight into :class:`~repro.traffic.mix.TrafficMix` -- or,
one level up, rides inside a declarative
:class:`~repro.traffic.workload.WorkloadSpec` (``pattern=`` /
``arrival=`` / ``workload=`` fields) through
:class:`~repro.sim.session.SimulationSession`, the CLI (``--pattern`` /
``--arrival`` / ``--workload``, ``repro scenarios``, ``repro trace``),
sweep grids and benchmarks.

Multi-class workloads resolve the same way::

    from repro.workloads import resolve_workload
    classes = resolve_workload("cache_coherence:storms=true", n=16)
    classes = resolve_workload(
        "classes:inv=broadcast,len=2,rate=0.002;"
        "fill=uniform,len=10,rate=0.012", n=16)

Modules
-------
:mod:`repro.workloads.registry`
    The scenario registry, spec-string grammar and resolvers (patterns,
    arrivals and multi-class workloads).
:mod:`repro.workloads.closedloop`
    The closed-loop application engine: reactive sources with
    outstanding-request windows, request/reply transactions and
    barrier-synchronised phases, fed per-cycle completion callbacks by
    every backend.
:mod:`repro.workloads.trace`
    The JSONL trace formats (v1 arrival times; v2 full injection
    records), :class:`~repro.workloads.trace.TraceRecorder` and
    :class:`~repro.workloads.trace.Trace` record/replay.
:mod:`repro.workloads.appmodels`
    Application-level scenarios built on multi-class mixes
    (``cache_coherence``, ``allreduce``), registered as first-class
    named workloads.
"""

from repro.traffic.arrival import BurstyInjector, TraceInjector
from repro.workloads import appmodels as _appmodels  # noqa: F401 (registers)
from repro.workloads.appmodels import (allreduce_classes,
                                       cache_coherence_classes)
from repro.workloads.closedloop import (ClosedLoopClass, ClosedLoopSource,
                                        ClosedLoopWorkload)
from repro.workloads.registry import (ARRIVAL, PATTERN, WORKLOAD,
                                      ResolvedArrival, ScenarioInfo,
                                      check_spec,
                                      check_workload, format_spec,
                                      get_scenario, list_scenarios,
                                      parse_classes, parse_spec,
                                      register_scenario, resolve_arrival,
                                      resolve_pattern, resolve_workload,
                                      scenario_table)
from repro.workloads.trace import (TRACE_FORMAT, TRACE_FORMAT_V2, Trace,
                                   TraceRecorder)

__all__ = [
    "ARRIVAL",
    "PATTERN",
    "WORKLOAD",
    "BurstyInjector",
    "ClosedLoopClass",
    "ClosedLoopSource",
    "ClosedLoopWorkload",
    "ResolvedArrival",
    "ScenarioInfo",
    "TRACE_FORMAT",
    "TRACE_FORMAT_V2",
    "Trace",
    "TraceInjector",
    "TraceRecorder",
    "allreduce_classes",
    "cache_coherence_classes",
    "check_spec",
    "check_workload",
    "format_spec",
    "get_scenario",
    "list_scenarios",
    "parse_classes",
    "parse_spec",
    "register_scenario",
    "resolve_arrival",
    "resolve_pattern",
    "resolve_workload",
    "scenario_table",
]
