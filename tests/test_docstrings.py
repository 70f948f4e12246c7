"""The examples in the public modules' docstrings run as tests, so the
quickstart a reader copies from ``help(repro)`` keeps working."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", [
    "repro", "repro.core.api", "repro.sim.rng", "repro.sim.session",
    "repro.sim.replication"])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
