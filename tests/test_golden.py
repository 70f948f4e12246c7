"""Golden-fixture regression tests: the seed semantics, pinned.

``tests/golden/*.json`` holds the canonical ``RunSummary`` of a small
pinned config set, produced by ``tests/golden_regen.py`` on the
reference backend and checked on both engines.  Any change
to routing, arbitration, flow control, traffic generation, RNG
consumption or statistics that moves a single delivered flit shows up
here as a failing comparison against the committed fixture -- before it
can silently shift a paper figure.

Regeneration (only when semantics change *on purpose*)::

    PYTHONPATH=src python tests/golden_regen.py

Floats are compared with a tiny relative tolerance (means and CIs come
from pure-Python arithmetic on deterministic sample streams, but libm
differences across platforms can wiggle the last bits); everything else
must match exactly.
"""

import json
import os

import pytest

from golden_regen import GOLDEN_CONFIGS, GOLDEN_DIR, golden_row

NAMES = [name for name, _, _ in GOLDEN_CONFIGS]


def _load(name):
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    assert os.path.exists(path), (
        f"missing golden fixture {path}; run "
        f"'PYTHONPATH=src python tests/golden_regen.py' and commit it")
    with open(path) as fh:
        return json.load(fh)


def _assert_matches(current, golden, path=""):
    """Recursive comparison: exact for ints/strs/bools, approx for
    floats, structural for lists/dicts (JSON turns tuples into lists)."""
    if isinstance(golden, dict):
        assert isinstance(current, dict), f"{path}: {current!r} != dict"
        assert set(current) == set(golden), (
            f"{path}: keys {sorted(current)} != {sorted(golden)}")
        for key in golden:
            _assert_matches(current[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, (list, tuple)):
        current = list(current) if isinstance(current, tuple) else current
        assert isinstance(current, list), f"{path}: {current!r} != list"
        assert len(current) == len(golden), (
            f"{path}: length {len(current)} != {len(golden)}")
        for i, (c, g) in enumerate(zip(current, golden)):
            _assert_matches(c, g, f"{path}[{i}]")
    elif isinstance(golden, float) and not isinstance(golden, bool):
        assert current == pytest.approx(golden, rel=1e-9, abs=1e-12), (
            f"{path}: {current!r} != {golden!r}")
    else:
        assert current == golden, f"{path}: {current!r} != {golden!r}"


class TestGoldenFixtures:
    def test_fixture_set_is_complete(self):
        committed = {f[:-5] for f in os.listdir(GOLDEN_DIR)
                     if f.endswith(".json")}
        assert committed == set(NAMES), (
            "golden dir out of sync with GOLDEN_CONFIGS; rerun "
            "tests/golden_regen.py")

    @pytest.mark.parametrize("name", NAMES)
    def test_no_drift_from_seed_semantics(self, name, engines_built):
        """The fixture is what the reference wrote and what the array
        engine gives: a fault both engines share fails here."""
        golden = _load(name)
        for backend in ("reference", "array"):
            _assert_matches(golden_row(name, backend), golden, backend)
        assert [t.__name__ for t in engines_built] == ["ReferenceBackend",
                                                       "ArrayBackend"]

    def test_fixtures_carry_real_traffic(self):
        """Guard against a silently-degenerate pin (e.g. zero deliveries
        would make every comparison trivially pass)."""
        total = sum(_load(n)["summary"]["delivered_msgs"] for n in NAMES)
        assert total > 500
        assert any(_load(n)["summary"]["saturated"] for n in NAMES)
        assert any(_load(n)["summary"]["bcast_samples"] > 0 for n in NAMES)
