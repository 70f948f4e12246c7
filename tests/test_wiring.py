"""The switch wiring, pinned: what ``build_network`` wires and what the
array engine's ``_build_static`` derives from it.

``tests/wiring_digests.json`` holds, for the four topologies at three
sizes up to N = 1 024, a digest of the object graph (buffer labels,
capacities and roles; per port its dateline flag, VC policy, feeders in
order and downstream lanes; per buffer the ports it feeds, in order) and
one digest per static array of the engine.  Any change to how a network
is wired or how the engine lays it out moves a digest.  Regenerate (a
deliberate act, reviewed like a golden ``RunSummary``)::

    PYTHONPATH=src python tests/test_wiring.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core.api import build_network             # noqa: E402
from repro.sim.array_backend import ArrayBackend     # noqa: E402

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "wiring_digests.json")

SHAPES = [(kind, n) for kind in ("quarc", "spidergon", "mesh", "torus")
          for n in (16, 64, 1024)]

#: the static geometry ``_build_static`` lays out
ARRAYS = ("_down _rbase _rmask _qcap _fptr _fbuf _upof _vcmode _pv2of "
          "_pbase _rtab _rrow _rsh _rtflag _qtab _btab _Fm1 _pnode "
          "_isdl").split()


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=12).hexdigest()


def array_digest(value) -> str:
    """Shape and int64 values of an array; ``repr`` of a scalar or a
    tuple."""
    if value is None or isinstance(value, (int, tuple)):
        return _digest(repr(value).encode())
    a = np.asarray(value)
    return _digest(repr(a.shape).encode()
                   + np.ascontiguousarray(a, np.int64).tobytes())


def object_digest(net) -> str:
    """The wiring as the object graph holds it."""
    def label(buf):
        return None if buf is None else buf.label

    rows = []
    for r in net.routers:
        rows.append([(b.label, b.capacity, b.role,
                      [p.name for p in b.fed]) for b in r.in_bufs])
        rows.append([(p.name, p.is_dateline, p.vc_policy,
                      [b.label for b in p.feeders],
                      [label(d) for d in p.down]) for p in r.out_ports])
    return _digest(repr(rows).encode())


def digests(kind: str, n: int) -> dict:
    net, _ = build_network(kind, n)
    out = {"objects": object_digest(net)}
    be = ArrayBackend(net)
    out.update((name, array_digest(getattr(be, name))) for name in ARRAYS)
    be.detach()
    return out


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind,n", SHAPES)
def test_wiring_digests_unchanged(kind, n, pinned):
    got = digests(kind, n)
    want = pinned[f"{kind}{n}"]
    assert sorted(got) == sorted(want)
    moved = [name for name in want if got[name] != want[name]]
    assert moved == [], f"{kind}{n}: the wiring moved in {moved}"



@pytest.mark.parametrize("kind", ("quarc", "spidergon", "mesh", "torus"))
def test_graph_built_after_an_attached_run_is_pinned(kind, pinned):
    """The object graph is built on first read: read only after an
    array engine ran the network for a while, it is wired as pinned."""
    net, _ = build_network(kind, 16)
    be = ArrayBackend(net)
    for t in range(200):
        net.send_unicast(t % 16, (t * 7 + 3) % 16, 4, None, t)
        net.step()
    assert net.built is None and net.flits_moved > 0
    assert object_digest(net) == pinned[f"{kind}16"]["objects"]
    assert net.built == (200, "test access")
    be.detach()


if __name__ == "__main__":
    table = {f"{kind}{n}": digests(kind, n) for kind, n in SHAPES}
    with open(FIXTURE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}: {len(table)} networks")
