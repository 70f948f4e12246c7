"""Shared fixtures for the test-suite (helpers live in ``helpers.py``).

Also wires the ``slow`` marker: tests tagged ``@pytest.mark.slow`` (the
nightly-sized differential fuzz sweep) are skipped unless ``--runslow``
is passed.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.core.api import build_network
from repro.core.collector import LatencyCollector
from repro.noc.network import Network


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (the nightly-size differential sweep)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def engines_built(monkeypatch) -> List[type]:
    """The backend class of every ``SimulationSession`` built in-process
    during the test, in order.  Cross-engine tests assert on it that
    both sides of their comparison really ran, so a changed default
    cannot quietly turn them into array-vs-array."""
    import repro.sim.session as session
    built: List[type] = []
    real = session.make_backend

    def recording(name, net):
        backend = real(name, net)
        built.append(type(backend))
        return backend

    monkeypatch.setattr(session, "make_backend", recording)
    return built


@pytest.fixture
def quarc16() -> Tuple[Network, LatencyCollector]:
    coll = LatencyCollector()
    net, _ = build_network("quarc", 16, collector=coll)
    return net, coll


@pytest.fixture
def spidergon16() -> Tuple[Network, LatencyCollector]:
    coll = LatencyCollector()
    net, _ = build_network("spidergon", 16, collector=coll)
    return net, coll
