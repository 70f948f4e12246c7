"""The scenario registry: compact spec strings -> workload components.

A *scenario* is a named spatial destination pattern or temporal arrival
model, selectable from a one-line spec string::

    uniform                      hotspot:node=0,p=0.2
    transpose                    bursty:on=0.3,len=8
    bit-complement               trace:path=run.jsonl
    neighbour                    bernoulli
    permutation:seed=3

Grammar: ``name[:key=value[,key=value...]]``.  Values are coerced to
int, float or bool when they look like one, else kept as strings (so
``path=run.jsonl`` survives).  Names and keys are case-insensitive;
common spelling aliases are registered (``neighbor``,
``bit_complement``/``bitcomp``, ``poisson``).

The registry is discoverable (:func:`list_scenarios` powers ``repro
scenarios list``) and extensible (:func:`register_scenario`), in the
style of rule registries in validation engines: adding a scenario here
makes it reachable from every layer above -- ``WorkloadSpec``,
``SimulationSession``, the CLI flags, sweep grids and benchmarks -- with
no further wiring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.traffic.arrival import (BernoulliInjector, BurstyInjector,
                                   ReplayInjector, TraceInjector)
from repro.traffic.generators import (BitComplementPattern,
                                      DestinationPattern, DirectoryPattern,
                                      HotspotPattern, NeighbourPattern,
                                      PermutationPattern, TransposePattern,
                                      UniformPattern)
from repro.workloads.trace import Trace

__all__ = ["ScenarioInfo", "ResolvedArrival", "parse_spec", "format_spec",
           "list_scenarios", "register_scenario", "get_scenario",
           "check_spec", "resolve_pattern",
           "resolve_arrival", "resolve_workload", "check_workload",
           "parse_classes", "scenario_table"]

PATTERN = "pattern"
ARRIVAL = "arrival"
WORKLOAD = "workload"


@dataclass(frozen=True)
class ScenarioInfo:
    """Registry metadata for one named scenario."""

    name: str
    kind: str                       # PATTERN | ARRIVAL
    summary: str
    params: Dict[str, str] = field(default_factory=dict)  # key -> doc
    required: Tuple[str, ...] = ()
    aliases: Tuple[str, ...] = ()
    #: params whose values stay raw strings (never int/float/bool
    #: coerced), e.g. file paths that merely *look* numeric ("1e5")
    string_params: Tuple[str, ...] = ()
    #: pattern: build(n, **params) -> DestinationPattern
    #: arrival: build(**params) -> ResolvedArrival
    build: Callable = None          # type: ignore[assignment]

    def spec_example(self) -> str:
        if not self.params:
            return self.name
        return self.name + ":" + ",".join(
            f"{k}=<{k}>" for k in self.params)


class ResolvedArrival:
    """A resolved temporal model: one injector factory for all nodes.

    Callable as ``model(node, rate, rng) -> injector`` -- the signature
    :class:`~repro.traffic.mix.TrafficMix` expects; the injectors it
    builds implement the :class:`~repro.traffic.arrival.ArrivalModel`
    protocol.  ``nodes`` is the node count the model is pinned to
    (trace replay), or ``None`` for size-agnostic stochastic models.
    ``reactive`` mirrors the protocol's capability flag at the factory
    level, so drivers can classify a mix before building injectors.
    """

    def __init__(self, name: str, spec: str,
                 make: Callable[[int, float, random.Random], object],
                 nodes: Optional[int] = None, reactive: bool = False):
        self.name = name
        self.spec = spec
        self.nodes = nodes
        self.reactive = reactive
        self._make = make
        #: v2-trace replay payload (per-node event lists); when set,
        #: :class:`~repro.traffic.mix.TrafficMix` sends the recorded
        #: messages verbatim at the arrivals the injectors replay
        self.replay = None

    def __call__(self, node: int, rate: float,
                 rng: random.Random) -> object:
        return self._make(node, rate, rng)

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return f"<ResolvedArrival {self.spec!r}>"



_REGISTRY: Dict[str, ScenarioInfo] = {}
_ALIASES: Dict[str, str] = {}


def register_scenario(info: ScenarioInfo) -> ScenarioInfo:
    """Add a scenario (and its aliases) to the registry.

    Lookup is case-insensitive, so names and aliases are stored
    lower-cased -- a scenario registered as ``"AllReduce"`` is reachable
    as ``"allreduce"`` (and any other casing)."""
    for key in (info.name,) + info.aliases:
        key = key.lower()
        if key in _REGISTRY or key in _ALIASES:
            raise ValueError(f"scenario name {key!r} already registered")
    _REGISTRY[info.name.lower()] = info
    for alias in info.aliases:
        _ALIASES[alias.lower()] = info.name.lower()
    return info


def list_scenarios(kind: Optional[str] = None) -> List[ScenarioInfo]:
    """All registered scenarios, optionally filtered by kind."""
    infos = [i for i in _REGISTRY.values()
             if kind is None or i.kind == kind]
    return sorted(infos, key=lambda i: (i.kind, i.name))


def get_scenario(name: str, kind: Optional[str] = None) -> ScenarioInfo:
    """Look up one scenario by canonical name or alias."""
    key = name.lower()
    info = _REGISTRY.get(key) or _REGISTRY.get(_ALIASES.get(key, ""))
    if info is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown scenario {name!r}; known: {known}")
    if kind is not None and info.kind != kind:
        raise ValueError(
            f"scenario {info.name!r} is a {info.kind} scenario, "
            f"not usable as a {kind}")
    return info


# ----------------------------------------------------------------------
# spec-string grammar
# ----------------------------------------------------------------------
def _coerce(text: str) -> object:
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_spec(spec: str) -> Tuple[str, Dict[str, str]]:
    """Split ``"name:key=value,..."`` into ``(name, raw-string params)``.

    Note the grammar's one hard limit: ``,`` separates parameters, so
    values (e.g. trace paths) cannot contain commas.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"empty scenario spec {spec!r}")
    name, sep, rest = spec.strip().partition(":")
    name = name.strip().lower()
    if not name:
        raise ValueError(f"scenario spec {spec!r} has no name")
    params: Dict[str, str] = {}
    if sep and rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip().lower()
            if not eq or not key or not value.strip():
                raise ValueError(
                    f"bad parameter {item!r} in scenario spec {spec!r}; "
                    f"expected key=value")
            if key in params:
                raise ValueError(
                    f"duplicate parameter {key!r} in scenario spec "
                    f"{spec!r}")
            params[key] = value.strip()
    return name, params


def parse_spec(spec: str) -> Tuple[str, Dict[str, object]]:
    """Split ``"name:key=value,..."`` into ``(name, params)``.

    Values are coerced (int/float/bool where unambiguous).  Raises
    :class:`ValueError` on empty names, missing ``=`` or duplicate keys.
    """
    name, raw = _split_spec(spec)
    return name, {k: _coerce(v) for k, v in raw.items()}


def _format_value(value: object) -> str:
    """Render one parameter value so :func:`parse_spec` coerces it back
    to an equal value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = repr(value) if isinstance(value, float) else str(value)
    if _coerce(text) != value:
        raise ValueError(
            f"parameter value {value!r} does not survive the spec "
            f"grammar (renders as {text!r})")
    return text


def format_spec(name: str, params: Optional[Dict[str, object]] = None
                ) -> str:
    """The canonical spec string for ``(name, params)`` -- the inverse
    of :func:`parse_spec`, up to key order and whitespace.

    Round-trip invariant (property-tested in
    ``tests/test_workload_properties.py``)::

        parse_spec(format_spec(*parse_spec(s))) == parse_spec(s)

    Raises :class:`ValueError` for names/keys/values the grammar cannot
    carry (empty names, ``:``/``,``/``=`` inside tokens, values whose
    text form coerces to a different value -- e.g. the *string* "1e5",
    which would come back as a float; keep those in ``string_params``
    scenarios and pass the string to the resolver directly).
    """
    name = str(name).strip().lower()
    if not name or any(c in name for c in ":,="):
        raise ValueError(f"scenario name {name!r} does not fit the "
                         f"spec grammar")
    if not params:
        return name
    parts = []
    for key, value in params.items():
        key = str(key).strip().lower()
        if not key or any(c in key for c in ":,="):
            raise ValueError(f"parameter key {key!r} does not fit the "
                             f"spec grammar")
        text = _format_value(value)
        if not text.strip() or any(c in text for c in ",="):
            raise ValueError(
                f"parameter value {value!r} does not fit the spec "
                f"grammar (the ',' separator and '=' are reserved)")
        parts.append(f"{key}={text}")
    return name + ":" + ",".join(parts)


def _resolve(spec: str, kind: str
             ) -> Tuple[ScenarioInfo, Dict[str, object]]:
    """Look up + validate a spec and coerce its parameter values,
    honouring the scenario's ``string_params`` (kept raw)."""
    name, raw = _split_spec(spec)
    info = get_scenario(name, kind)
    unknown = set(raw) - set(info.params)
    if unknown:
        accepted = ", ".join(sorted(info.params)) or "(none)"
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for scenario "
            f"{info.name!r}; accepted: {accepted}")
    missing = [k for k in info.required if k not in raw]
    if missing:
        raise ValueError(
            f"scenario {info.name!r} requires parameter(s) {missing} "
            f"(e.g. {info.spec_example()!r})")
    params = {k: (v if k in info.string_params else _coerce(v))
              for k, v in raw.items()}
    return info, params


def check_spec(spec: str, kind: str) -> ScenarioInfo:
    """Validate a spec string (name, kind, parameter names) without
    building anything -- no file access, no network size needed.  Used
    by :class:`~repro.traffic.workload.WorkloadSpec` for early errors."""
    return _resolve(spec, kind)[0]


def resolve_pattern(spec: str, n: int) -> DestinationPattern:
    """Build the destination pattern a spec string names, for ``n`` nodes."""
    info, params = _resolve(spec, PATTERN)
    return info.build(n, **params)


def resolve_arrival(spec: str) -> ResolvedArrival:
    """Build the arrival model a spec string names."""
    info, params = _resolve(spec, ARRIVAL)
    model = info.build(**params)
    model.spec = spec.strip()
    return model


# ----------------------------------------------------------------------
# multi-class workload specs
# ----------------------------------------------------------------------
def _extend_spec(spec: str, item: str) -> str:
    """Append one ``key=value`` parameter to a pattern/arrival spec."""
    return spec + ("," if ":" in spec else ":") + item


def parse_classes(body: str, spec: str = ""):
    """Parse the body of a ``classes:`` workload spec into
    :class:`~repro.traffic.mix.TrafficClass` instances.

    Grammar (``;`` separates classes, ``,`` separates items)::

        <name>=<head>[,key=value...][;<name2>=...]

    where ``head`` is ``broadcast`` or a spatial pattern name (with its
    first parameter attached, e.g. ``hotspot:node=0``).  The reserved
    class-level keys are ``len``/``msg_len`` (flits, required), ``rate``
    (messages/node/cycle, required), ``cast`` and ``arrival``.  Any
    other ``key=value`` item extends the pattern spec -- or, once an
    ``arrival=`` item has appeared, the arrival spec (so
    ``arrival=bursty:on=0.3,len=8`` reads ``len`` as the *burst* length;
    put the class ``len`` before ``arrival=``).

    Example (the paper's cache-coherence mix, Sec. 2.2)::

        inv=broadcast,len=2,rate=0.002;fill=hotspot:node=0,len=10,rate=0.012
    """
    from repro.traffic.mix import TrafficClass
    label = spec or f"classes:{body}"
    chunks = [c.strip() for c in body.split(";") if c.strip()]
    if not chunks:
        raise ValueError(f"workload spec {label!r} declares no classes")
    classes = []
    names = set()
    for chunk in chunks:
        items = [it.strip() for it in chunk.split(",")]
        name, eq, head = items[0].partition("=")
        name = name.strip().lower()
        head = head.strip()
        if not eq or not name or not head:
            raise ValueError(
                f"bad class {items[0]!r} in workload spec {label!r}; "
                f"expected <name>=<broadcast-or-pattern>")
        if name in names:
            raise ValueError(
                f"duplicate class {name!r} in workload spec {label!r}")
        names.add(name)
        cast = "broadcast" if head.lower() == "broadcast" else "unicast"
        pattern = "uniform" if cast == "broadcast" else head
        arrival = "bernoulli"
        rate = msg_len = None
        seen_arrival = False
        for item in items[1:]:
            key, eq, value = item.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if not eq or not key or not value:
                raise ValueError(
                    f"bad parameter {item!r} for class {name!r} in "
                    f"workload spec {label!r}; expected key=value")
            if seen_arrival:
                arrival = _extend_spec(arrival, item)
            elif key in ("len", "msg_len"):
                msg_len = _coerce(value)
            elif key == "rate":
                rate = _coerce(value)
            elif key == "cast":
                cast = value.lower()
            elif key == "arrival":
                arrival = value
                seen_arrival = True
            else:
                if cast == "broadcast" and pattern == "uniform":
                    raise ValueError(
                        f"class {name!r} in workload spec {label!r}: "
                        f"parameter {item!r} has no pattern to attach to "
                        f"(broadcast classes take no pattern)")
                pattern = _extend_spec(pattern, item)
        if rate is None or msg_len is None:
            raise ValueError(
                f"class {name!r} in workload spec {label!r} needs both "
                f"rate= and len= (got rate={rate!r}, len={msg_len!r})")
        if not isinstance(msg_len, int) or isinstance(msg_len, bool):
            raise ValueError(
                f"class {name!r} in workload spec {label!r}: len must "
                f"be an integer flit count (got {msg_len!r})")
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise ValueError(
                f"class {name!r} in workload spec {label!r}: rate must "
                f"be a number (got {rate!r})")
        if cast == "unicast":
            check_spec(pattern, PATTERN)
        check_spec(arrival, ARRIVAL)
        classes.append(TrafficClass(name=name, rate=float(rate),
                                    msg_len=msg_len, pattern=pattern,
                                    arrival=arrival, cast=cast))
    return classes


def _split_workload(spec: str):
    """Split a workload spec into ``(name, body)`` without the normal
    ``key=value`` parsing (the ``classes:`` body has its own grammar)."""
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"empty workload spec {spec!r}")
    name, _, body = spec.strip().partition(":")
    name = name.strip().lower()
    if not name:
        raise ValueError(f"workload spec {spec!r} has no name")
    return name, body.strip()


def check_workload(spec: str) -> ScenarioInfo:
    """Validate a workload spec string (name, kind, parameters -- and
    for raw ``classes:`` specs the full class grammar) without needing a
    network size.  Used by
    :class:`~repro.traffic.workload.WorkloadSpec` for early errors."""
    name, body = _split_workload(spec)
    if name == "classes":
        parse_classes(body, spec)
        return get_scenario("classes", WORKLOAD)
    return _resolve(spec, WORKLOAD)[0]


def resolve_workload(spec: str, n: int):
    """Build the :class:`~repro.traffic.mix.TrafficClass` list a
    workload spec names, for an ``n``-node network.

    ``classes:<grammar>`` builds the declared mix verbatim; any other
    name is looked up in the registry's application-workload scenarios
    (``cache_coherence``, ``allreduce``, ...), whose ``build(n,
    **params)`` returns either a plain class list or a
    :class:`~repro.workloads.closedloop.ClosedLoopWorkload` bundle
    (passed through as-is for the session to wire an engine around).
    """
    from repro.workloads.closedloop import ClosedLoopWorkload
    name, body = _split_workload(spec)
    if name == "classes":
        return parse_classes(body, spec)
    info, params = _resolve(spec, WORKLOAD)
    built = info.build(n, **params)
    if isinstance(built, ClosedLoopWorkload):
        return built
    classes = list(built)
    if not classes:
        raise ValueError(f"workload {info.name!r} built no classes")
    return classes


def scenario_table() -> str:
    """A human-readable listing for ``repro scenarios list``."""
    lines = []
    for kind, title in ((PATTERN, "Spatial destination patterns"),
                        (ARRIVAL, "Temporal arrival models"),
                        (WORKLOAD, "Application workloads "
                                   "(multi-class mixes)")):
        lines.append(f"{title}:")
        for info in list_scenarios(kind):
            alias = (f"  (aliases: {', '.join(info.aliases)})"
                     if info.aliases else "")
            lines.append(f"  {info.name:<16s} {info.summary}{alias}")
            for key, doc in info.params.items():
                req = " [required]" if key in info.required else ""
                lines.append(f"      {key:<12s} {doc}{req}")
        lines.append("")
    lines.append("Spec grammar: name[:key=value[,key=value...]], e.g. "
                 "'hotspot:node=0,p=0.2' or 'bursty:on=0.3,len=8'.")
    lines.append("Multi-class grammar: classes:<name>=<broadcast|pattern>"
                 ",len=<flits>,rate=<r>[,arrival=...][;<name2>=...], "
                 "e.g. 'classes:inv=broadcast,len=2,rate=0.002;"
                 "fill=uniform,len=10,rate=0.012'.")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# built-in scenarios
# ----------------------------------------------------------------------
def _build_uniform(n: int) -> DestinationPattern:
    return UniformPattern(n)


def _build_hotspot(n: int, node: int = 0, p: float = 0.2
                   ) -> DestinationPattern:
    return HotspotPattern(n, hotspot=node, p=p)


def _build_transpose(n: int) -> DestinationPattern:
    return TransposePattern(n)


def _build_bit_complement(n: int) -> DestinationPattern:
    return BitComplementPattern(n)


def _build_neighbour(n: int, offset: int = 1) -> DestinationPattern:
    return NeighbourPattern(n, offset=offset)


def _build_permutation(n: int, seed: int = 0) -> DestinationPattern:
    return PermutationPattern(n, seed=seed)


def _build_directory(n: int, quadrants: int = 4, local: float = 0.5
                     ) -> DestinationPattern:
    return DirectoryPattern(n, quadrants=quadrants, local=local)


def _build_bernoulli() -> ResolvedArrival:
    return ResolvedArrival(
        "bernoulli", "bernoulli",
        lambda node, rate, rng: BernoulliInjector(rate, rng))


def _build_bursty(on: float = 0.3, **kw) -> ResolvedArrival:
    burst_len = kw.pop("len", 8)
    if kw:
        raise ValueError(f"unknown bursty parameter(s) {sorted(kw)}")
    return ResolvedArrival(
        "bursty", f"bursty:on={on},len={burst_len}",
        lambda node, rate, rng: BurstyInjector(
            rate, rng, on_frac=on, burst_len=burst_len))


def _build_closedloop(window: int = 4) -> ResolvedArrival:
    # Imported lazily: closedloop imports TrafficClass from the mix
    # module, which imports this registry lazily in turn; resolving at
    # call time keeps the module graph acyclic.
    from repro.workloads.closedloop import ClosedLoopSource
    if window < 1:
        raise ValueError(
            f"closedloop window must be >= 1 outstanding message "
            f"(got {window})")
    return ResolvedArrival(
        "closedloop", f"closedloop:window={window}",
        lambda node, rate, rng: ClosedLoopSource(rate, rng, window=window),
        reactive=True)


def _build_trace(path: str) -> ResolvedArrival:
    trace = Trace.load(str(path))
    per_node = trace.per_node()
    # v2: one arrival per recorded message (a multi-class node may send
    # several in one cycle), each sent verbatim -- seed-independent
    make = ReplayInjector if trace.version == 2 else TraceInjector
    model = ResolvedArrival(
        "trace", f"trace:path={path}",
        lambda node, rate, rng: make(per_node[node]),
        nodes=trace.n)
    if trace.version == 2:
        model.replay = trace.per_node_events()
    return model


register_scenario(ScenarioInfo(
    name="uniform", kind=PATTERN,
    summary="uniformly random destination != source (the paper's workload)",
    build=_build_uniform))
register_scenario(ScenarioInfo(
    name="hotspot", kind=PATTERN,
    summary="probability p of targeting one hot node, else uniform",
    params={"node": "the hotspot node id (default 0)",
            "p": "probability of targeting it (default 0.2)"},
    build=_build_hotspot))
register_scenario(ScenarioInfo(
    name="transpose", kind=PATTERN,
    summary="bit-transpose adversarial pattern (power-of-two N)",
    build=_build_transpose))
register_scenario(ScenarioInfo(
    name="bit-complement", kind=PATTERN,
    summary="dst = ~src, every message crosses the centre (power-of-two N)",
    aliases=("bit_complement", "bitcomp"),
    build=_build_bit_complement))
register_scenario(ScenarioInfo(
    name="neighbour", kind=PATTERN,
    summary="dst = src+offset mod N, pure nearest-neighbour rim traffic",
    params={"offset": "ring offset, +1 downstream / -1 upstream "
                      "(default 1)"},
    aliases=("neighbor",),
    build=_build_neighbour))
register_scenario(ScenarioInfo(
    name="permutation", kind=PATTERN,
    summary="a fixed random derangement: each node targets one partner",
    params={"seed": "derangement seed (default 0)"},
    build=_build_permutation))
register_scenario(ScenarioInfo(
    name="directory", kind=PATTERN,
    summary="directory-home locality: probability `local` of a home in "
            "the source's NUMA quadrant, else a remote quadrant",
    params={"quadrants": "contiguous home arcs the ring splits into "
                         "(default 4)",
            "local": "probability of an own-quadrant home (default 0.5)"},
    build=_build_directory))

register_scenario(ScenarioInfo(
    name="bernoulli", kind=ARRIVAL,
    summary="independent Bernoulli(rate) arrivals per node (the default)",
    aliases=("poisson",),
    build=_build_bernoulli))
register_scenario(ScenarioInfo(
    name="bursty", kind=ARRIVAL,
    summary="on/off MMPP: geometric bursts at elevated rate, then silence",
    params={"on": "stationary ON fraction in (0,1) (default 0.3)",
            "len": "mean burst length in cycles (default 8)"},
    build=_build_bursty))
register_scenario(ScenarioInfo(
    name="closedloop", kind=ARRIVAL,
    summary="reactive closed-loop source: stalls while `window` "
            "requests are in flight (needs a closed-loop workload to "
            "feed completions back)",
    params={"window": "max outstanding requests per node (default 4)"},
    aliases=("closed-loop", "closed_loop"),
    build=_build_closedloop))
register_scenario(ScenarioInfo(
    name="trace", kind=ARRIVAL,
    summary="deterministic replay of a recorded JSONL arrival trace "
            "(v2 traces replay destinations/classes too)",
    params={"path": "trace file written by 'repro trace record' "
                    "(commas cannot appear in the path)"},
    required=("path",),
    string_params=("path",),
    build=_build_trace))

register_scenario(ScenarioInfo(
    name="classes", kind=WORKLOAD,
    summary="a raw multi-class mix declared inline (see the "
            "multi-class grammar below)",
    params={"<name>": "one chunk per class: <name>=<broadcast|pattern>,"
                      "len=<flits>,rate=<r>[,arrival=<spec>]; chunks "
                      "separated by ';'"},
    build=None))
