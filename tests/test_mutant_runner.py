"""The mutant runner (``tests/mutants/run.py``) on a mutant of its own: a
test that loops forever is killed at ``TIME_LIMIT``, with its process
group, and the report names it."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def _runner():
    spec = importlib.util.spec_from_file_location(
        "mutant_runner", os.path.join(HERE, "mutants", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_looping_mutant_is_killed_at_the_time_limit(tmp_path, monkeypatch):
    runner = _runner()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_spin.py").write_text(
        "def test_fast():\n    pass\n\n\ndef test_spin():\n    pass\n")
    monkeypatch.setattr(runner, "ROOT", str(tmp_path))
    monkeypatch.setattr(runner, "TIME_LIMIT", 2)
    looping = {"SUBSTITUTIONS": [(
        "tests/test_spin.py", "def test_spin():\n    pass\n",
        "def test_spin():\n    while True:\n        pass\n")],
        "KILLED_BY": ["tests/test_spin.py"]}
    assert runner.run_one("spin", looping) == (
        "killed (timeout) in tests/test_spin.py::test_spin")
