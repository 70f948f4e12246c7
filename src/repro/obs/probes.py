"""The probe registry: windowed time-series sampling of live state.

A *probe* samples one telemetry quantity at the end of every window of
``window`` cycles (sample cycles ``t0+w-1, t0+2w-1, ...`` plus the
final cycle of the horizon), riding the ``Probes`` callback seam of
:meth:`repro.sim.backend.SimBackend.run_mix`, whose windows end at
every probe cycle, so sampling costs O(samples), not O(cycles).

Probe catalogue
---------------
============  =====================================================
``occupancy`` per-router buffer occupancy vector (flits per router)
``links``     per-port flits forwarded during the window (link
              utilisation = value / window)
``rates``     messages generated / delivered and flits moved during
              the window (injection vs ejection balance)
``inflight``  total flit population at the sample cycle
``stalls``    switching-state census: ``latched`` wormhole lanes,
              ``blocked`` lanes (non-empty, latched, downstream VC
              buffer full) and ``routing`` lanes (non-empty, header
              not yet routed)
============  =====================================================

Determinism contract: every sampled quantity is defined on the shared
cycle semantics (end-of-cycle state / monotonic counters), so both
backends produce **identical** sample streams for the same
config.  Two sampler implementations exist behind one interface:
:class:`ObjectSampler` walks ``iter_buffers``/``iter_ports`` (the
reference backend's object graph), while :class:`ArraySampler`
reduces the array engine's flat state natively (vectorised
``np.add.reduceat`` over the buffer-occupancy array; no object
materialisation on the hot path).  The array sampler folds staged
injections first, so its end-of-cycle view matches a reference push.

All sample values are Python ints (lists/dicts thereof) -- never numpy
scalars -- which is what makes the JSONL export byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network
    from repro.sim.backend import SimBackend
    from repro.traffic.mix import TrafficMix

__all__ = ["PROBE_CATALOGUE", "ProbeSpec", "parse_probe", "ProbeSet",
           "saturation_onset"]

#: probe name -> one-line description (the CLI ``--probe`` help surface)
PROBE_CATALOGUE: Dict[str, str] = {
    "occupancy": "per-router buffer occupancy vector",
    "links": "per-port flits forwarded in the window",
    "rates": "generated/delivered messages + flits moved in the window",
    "inflight": "total in-flight flit population",
    "stalls": "latched / blocked / routing lane counts",
}

DEFAULT_WINDOW = 64


@dataclass(frozen=True)
class ProbeSpec:
    """One configured probe: a catalogue name + sampling window."""

    name: str
    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        if self.name not in PROBE_CATALOGUE:
            raise ValueError(
                f"unknown probe {self.name!r}; expected one of "
                f"{sorted(PROBE_CATALOGUE)}")
        if self.window < 1:
            raise ValueError(
                f"probe window must be >= 1 (got {self.window})")

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "window": self.window}


def parse_probe(text: str) -> ProbeSpec:
    """Parse a CLI probe spec: ``name`` or ``name:window=W``."""
    name, _, params = text.partition(":")
    window = DEFAULT_WINDOW
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            if key.strip() != "window" or not sep:
                raise ValueError(
                    f"bad probe parameter {item!r} in {text!r} "
                    f"(expected 'window=W')")
            try:
                window = int(value)
            except ValueError:
                raise ValueError(
                    f"probe window must be an integer "
                    f"(got {value!r} in {text!r})") from None
    return ProbeSpec(name=name.strip(), window=window)


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------
class ObjectSampler:
    """Reads telemetry from the object graph (reference backend):
    buffer deques, port counters, network counters."""

    def __init__(self, net: "Network", mix: "TrafficMix"):
        self.net = net
        self.mix = mix
        self._bufs = net.iter_buffers()
        self._ports = net.iter_ports()

    def prepare(self) -> None:
        """Hook for pre-sample state normalisation (no-op here: object
        pushes land in the deques immediately)."""

    def occupancy(self) -> List[int]:
        fs = self.net.fault_state
        if fs is not None and fs.dead_nodes:
            return [-1 if r.node in fs.dead_nodes else r.occupancy()
                    for r in self.net.routers]
        return [r.occupancy() for r in self.net.routers]

    def flits_sent(self) -> List[int]:
        return [p.flits_sent for p in self._ports]

    def inflight(self) -> int:
        return self.net.fabric_flits()

    def counters(self) -> Tuple[int, int, int, int]:
        net = self.net
        fs = net.fault_state
        return (self.mix.generated_total, net.deliveries, net.flits_moved,
                fs.dropped_msgs if fs is not None else 0)

    def stalls(self) -> Dict[str, int]:
        latched = blocked = routing = dead_lanes = 0
        for buf in self._bufs:
            port = buf.cur_out
            if port is not None:
                latched += 1
                if port.dead:
                    dead_lanes += 1
                if buf.q:
                    # a dead output never drains: same census as the
                    # array engine's always-full anchor row
                    down = port.down[buf.cur_vc]
                    if port.dead or (down is not None and down.full):
                        blocked += 1
            elif buf.q:
                routing += 1
        out = {"latched": latched, "blocked": blocked,
               "routing": routing}
        if self.net.fault_state is not None:
            out["dead_lanes"] = dead_lanes
        return out


class ArraySampler:
    """Reads the same telemetry natively from the array engine's flat
    numpy state -- vectorised window reductions, no materialisation.

    The equivalence mapping (guarded by the probe-stream tests):
    object ``cur_out is not None`` is array ``want >= 0 and not hdrf``;
    an ejection port's ``down[vc] is None`` is the sink sentinel row,
    which is never full; staged injections are folded before sampling
    so end-of-cycle occupancy matches an object-mode push.
    """

    def __init__(self, backend, mix: "TrafficMix"):
        import numpy as np
        self.backend = backend
        self.net = backend.net
        self.mix = mix
        # iter_buffers is node-major and contiguous per router, so the
        # per-router reduction is one reduceat over the lane-occupancy
        # array at precomputed router offsets
        offsets = [0]
        for r in self.net.routers[:-1]:
            offsets.append(offsets[-1] + len(r.in_bufs))
        self._roff = np.array(offsets, dtype=np.int64)
        self._np = np

    def prepare(self) -> None:
        self.backend._flush()

    def occupancy(self) -> List[int]:
        be = self.backend
        occ = self._np.add.reduceat(be._qlen[:be._B], self._roff)
        out = [int(v) for v in occ]
        fs = self.net.fault_state
        if fs is not None:
            for node in fs.dead_nodes:
                out[node] = -1
        return out

    def flits_sent(self) -> List[int]:
        return [int(v) for v in self.backend._fs]

    def inflight(self) -> int:
        return int(self.backend._inflight)

    def counters(self) -> Tuple[int, int, int, int]:
        net = self.net
        fs = net.fault_state
        return (self.mix.generated_total, net.deliveries, net.flits_moved,
                fs.dropped_msgs if fs is not None else 0)

    def stalls(self) -> Dict[str, int]:
        be = self.backend
        np = self._np
        B = be._B
        ne = be._ne[:B]
        hdrf = be._hdrf[:B]
        latched = (be._want[:B] >= 0) & ~hdrf
        # dead ports' credit rows point at the always-full anchor, so
        # their latched lanes fall out of this test without a mask
        blocked = latched & ne & be._fullb[be._down[be._pvb[:B]]]
        routing = ne & hdrf
        out = {"latched": int(latched.sum()),
               "blocked": int(blocked.sum()),
               "routing": int(routing.sum())}
        fs = self.net.fault_state
        if fs is not None:
            dead = [be._pid[p] for p in fs.dead_ports if p in be._pid]
            if dead:
                mask = latched & np.isin(
                    be._want[:B], np.array(dead, np.int64))
                out["dead_lanes"] = int(mask.sum())
            else:
                out["dead_lanes"] = 0
        return out


def make_sampler(backend: "SimBackend", mix: "TrafficMix"):
    """The native sampler for ``backend``: array-state reductions for
    an attached array engine, object-graph walks otherwise."""
    if getattr(backend, "name", "") == "array":
        return ArraySampler(backend, mix)
    return ObjectSampler(backend.net, mix)


# ----------------------------------------------------------------------
# the probe set
# ----------------------------------------------------------------------
class ProbeSet:
    """The configured probes of one run: sample-cycle schedule,
    windowed sampling and the accumulated record stream."""

    def __init__(self, specs: Tuple[ProbeSpec, ...],
                 backend: "SimBackend", mix: "TrafficMix"):
        self.specs = tuple(specs)
        self.sampler = make_sampler(backend, mix)
        self.records: List[Dict[str, object]] = []
        # window state, parallel to specs
        self._last_cycle = [None] * len(self.specs)  # type: ignore
        self._last_links: List[Optional[List[int]]] = \
            [None] * len(self.specs)
        self._last_counts: List[Optional[Tuple[int, int, int, int]]] = \
            [None] * len(self.specs)

    # ------------------------------------------------------------------
    def schedule(self, t0: int, cycles: int
                 ) -> Dict[int, Callable[[int], None]]:
        """``{cycle: callback}`` covering every probe's window
        boundaries in ``[t0, t0+cycles)`` plus the final cycle, for
        merging into the backend's ``probes`` dict."""
        if cycles <= 0:
            return {}
        plan: Dict[int, List[int]] = {}
        last = t0 + cycles - 1
        self._starts = {}
        self.sampler.prepare()
        for i, spec in enumerate(self.specs):
            t = t0 + spec.window - 1
            while t < last:
                plan.setdefault(t, []).append(i)
                t += spec.window
            plan.setdefault(last, []).append(i)
            self._starts[i] = t0
            # window counters are *deltas*: baseline them at the start
            # of the horizon so a resumed network reports only this
            # run's traffic
            if spec.name == "links":
                self._last_links[i] = self.sampler.flits_sent()
            elif spec.name == "rates":
                self._last_counts[i] = self.sampler.counters()
        return {t: self._make_cb(idxs) for t, idxs in plan.items()}

    def _make_cb(self, idxs: List[int]) -> Callable[[int], None]:
        def cb(now: int) -> None:
            self.sample(now, idxs)
        return cb

    # ------------------------------------------------------------------
    def sample(self, now: int, idxs: List[int]) -> None:
        """Take one sample of each probe in ``idxs`` at cycle ``now``
        (after the cycle's step)."""
        sampler = self.sampler
        sampler.prepare()
        for i in idxs:
            spec = self.specs[i]
            prev = self._last_cycle[i]
            start = prev + 1 if prev is not None else self._starts[i]
            window = now - start + 1
            if window < 1:
                continue
            name = spec.name
            if name == "occupancy":
                data: object = sampler.occupancy()
            elif name == "links":
                cur = sampler.flits_sent()
                base = self._last_links[i]
                data = (cur if base is None
                        else [c - b for c, b in zip(cur, base)])
                self._last_links[i] = cur
                fs = sampler.net.fault_state
                if fs is not None and fs.dead_ports:
                    # a dead link reports -1, not a zero that reads as
                    # "idle but healthy"
                    data = [-1 if p.dead else d for p, d in
                            zip(sampler.net.iter_ports(), data)]
            elif name == "rates":
                cur3 = sampler.counters()
                base3 = self._last_counts[i] or (0, 0, 0, 0)
                data = {"generated": cur3[0] - base3[0],
                        "delivered": cur3[1] - base3[1],
                        "flits": cur3[2] - base3[2]}
                if sampler.net.fault_state is not None:
                    data["dropped"] = cur3[3] - base3[3]
                self._last_counts[i] = cur3
            elif name == "inflight":
                data = sampler.inflight()
            else:                           # "stalls"
                data = sampler.stalls()
            self._last_cycle[i] = now
            self.records.append({"t": now, "probe": name,
                                 "window": window, "data": data})

    # ------------------------------------------------------------------
    def series(self, name: str) -> List[Tuple[int, object]]:
        """``[(cycle, data), ...]`` of one probe's samples."""
        return [(r["t"], r["data"]) for r in self.records
                if r["probe"] == name]

    def to_extra(self) -> Dict[str, object]:
        """The summary ``extra["probes"]`` block: declared specs + the
        full sample stream (both deterministic across backends)."""
        return {"specs": [s.to_dict() for s in self.specs],
                "samples": self.records}


def saturation_onset(inflight_samples: List[Tuple[int, int]],
                     threshold: int) -> int:
    """The first sampled cycle from which the in-flight population
    exceeds ``threshold`` *and never drops back* -- the probe-stream
    saturation-onset estimate the sweep tables report.  Returns -1 when
    the run never enters sustained saturation."""
    onset = -1
    for t, value in inflight_samples:
        if value > threshold:
            if onset < 0:
                onset = t
        else:
            onset = -1
    return onset
