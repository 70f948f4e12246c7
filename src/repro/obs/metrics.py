"""``repro-metrics/v1``: the JSONL telemetry stream + CSV export.

Stream layout (one JSON object per line, compact separators, sorted
keys -- the canonical byte form):

* Line 1, the **header**: ``{"format": "repro-metrics/v1", "run":
  {...}, "probes": [{"name", "window"}, ...]}``.  The ``run`` block
  carries the workload identity (topology, N, M, beta, rate, horizon,
  seed, scenario specs) -- deliberately *not* the backend name, so the
  streams of both backends are byte-identical (the acceptance
  surface of the probe-equivalence tests).  A profiled run adds
  ``objects``, the profile's object-graph line (``objects:``), and
  ``packet_table``, its packet-table counts (``table S slots of W
  bytes, L live after K compactions``).
* Every further line, one **sample**: ``{"t": cycle, "probe": name,
  "window": covered_cycles, "data": int | [int, ...] | {str: int}}``,
  ordered by sample cycle (ascending, ties in probe declaration
  order).

:func:`validate_stream` is the schema gate CI's probe smoke leg runs
against a freshly-written file.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

__all__ = ["METRICS_FORMAT", "stream_records", "dumps_stream",
           "write_jsonl", "write_csv", "validate_stream",
           "validate_file"]

METRICS_FORMAT = "repro-metrics/v1"

#: RunSummary attribute -> header key for the run-identity block
_RUN_FIELDS = (("noc", "noc"), ("n", "n"), ("msg_len", "msg_len"),
               ("bcast_frac", "beta"), ("offered_rate", "rate"),
               ("cycles", "cycles"), ("warmup", "warmup"),
               ("seed", "seed"))


def stream_records(summary, profile=None) -> List[Dict[str, object]]:
    """Header + sample records of one probed run (its
    :class:`~repro.sim.records.RunSummary` must carry an
    ``extra["probes"]`` block), ``profile`` (a profile's ``objects`` and
    ``packet_table``) in the header."""
    block = summary.extra.get("probes")
    if block is None:
        raise ValueError(
            "summary has no probe data; run with probes configured "
            "(RunConfig obs=ObsSpec(probes=...))")
    run: Dict[str, object] = {}
    for attr, key in _RUN_FIELDS:
        run[key] = getattr(summary, attr)
    for key in ("pattern", "arrival", "workload"):
        if summary.extra.get(key):
            run[key] = summary.extra[key]
    header: Dict[str, object] = {"format": METRICS_FORMAT, "run": run,
                                 "probes": block["specs"]}
    header.update(profile or {})
    return [header] + list(block["samples"])


def dumps_stream(summary, profile=None) -> str:
    """The canonical byte form: one compact, key-sorted JSON object
    per line.  Identical configs produce identical strings on every
    backend."""
    return "\n".join(
        json.dumps(rec, sort_keys=True, separators=(",", ":"))
        for rec in stream_records(summary, profile)) + "\n"


def write_jsonl(summary, path: str, profile=None) -> str:
    with open(path, "w") as fh:
        fh.write(dumps_stream(summary, profile))
    return path


def write_csv(summary, path: str) -> str:
    """Flat CSV of the sample stream: scalar data in ``value``,
    structured data exploded into ``key``/``value`` rows (one row per
    vector element or dict entry)."""
    import csv
    records = stream_records(summary)[1:]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "probe", "window", "key", "value"])
        for rec in records:
            data = rec["data"]
            if isinstance(data, dict):
                for key in sorted(data):
                    w.writerow([rec["t"], rec["probe"], rec["window"],
                                key, data[key]])
            elif isinstance(data, list):
                for i, v in enumerate(data):
                    w.writerow([rec["t"], rec["probe"], rec["window"],
                                i, v])
            else:
                w.writerow([rec["t"], rec["probe"], rec["window"], "",
                            data])
    return path


# ----------------------------------------------------------------------
# validation (CI smoke gate + replay tooling)
# ----------------------------------------------------------------------
def _fail(lineno: int, msg: str) -> "ValueError":
    return ValueError(f"metrics stream line {lineno}: {msg}")


def _check_value(lineno: int, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(lineno, f"non-integer data value {value!r}")


def validate_stream(lines: Iterable[str]) -> Dict[str, int]:
    """Validate a ``repro-metrics/v1`` stream; returns counts
    (``probes``, ``samples``).  Raises :class:`ValueError` with the
    offending line number on any schema violation."""
    it = iter(lines)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty metrics stream") from None
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise _fail(1, f"bad JSON ({exc})") from None
    if not isinstance(header, dict) \
            or header.get("format") != METRICS_FORMAT:
        raise _fail(1, f"missing format tag {METRICS_FORMAT!r}")
    if not isinstance(header.get("run"), dict):
        raise _fail(1, "missing 'run' block")
    declared = header.get("probes")
    if not isinstance(declared, list) or not declared:
        raise _fail(1, "missing 'probes' declarations")
    names = set()
    for spec in declared:
        if not isinstance(spec, dict) or "name" not in spec \
                or not isinstance(spec.get("window"), int) \
                or spec["window"] < 1:
            raise _fail(1, f"bad probe declaration {spec!r}")
        names.add(spec["name"])
    nsamples = 0
    last_t = -1
    for lineno, line in enumerate(it, start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _fail(lineno, f"bad JSON ({exc})") from None
        if not isinstance(rec, dict):
            raise _fail(lineno, "sample is not an object")
        for key in ("t", "probe", "window", "data"):
            if key not in rec:
                raise _fail(lineno, f"sample missing {key!r}")
        if rec["probe"] not in names:
            raise _fail(lineno, f"undeclared probe {rec['probe']!r}")
        if not isinstance(rec["t"], int) or rec["t"] < 0:
            raise _fail(lineno, f"bad sample cycle {rec['t']!r}")
        if rec["t"] < last_t:
            raise _fail(lineno,
                        f"sample cycles not ascending "
                        f"({rec['t']} after {last_t})")
        last_t = rec["t"]
        if not isinstance(rec["window"], int) or rec["window"] < 1:
            raise _fail(lineno, f"bad window {rec['window']!r}")
        data = rec["data"]
        if isinstance(data, list):
            for v in data:
                _check_value(lineno, v)
        elif isinstance(data, dict):
            for v in data.values():
                _check_value(lineno, v)
        else:
            _check_value(lineno, data)
        nsamples += 1
    if nsamples == 0:
        raise ValueError("metrics stream has a header but no samples")
    return {"probes": len(declared), "samples": nsamples}


def validate_file(path: str) -> Dict[str, int]:
    """Validate the stream at ``path`` (see :func:`validate_stream`)."""
    with open(path) as fh:
        return validate_stream(fh)
