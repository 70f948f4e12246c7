"""A refill interns a queue's records last first: the packets leave
their source queue in another order than they arrived."""

SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    """        aids = self._intern_records(out[:n], np.repeat(q, want[q]))""",
    """        out[:n] = np.concatenate([r[::-1] for r in np.split(
            out[:n], np.cumsum(want[q])[:-1])])
        aids = self._intern_records(out[:n], np.repeat(q, want[q]))""",
)]
KILLED_BY = [
    "tests/test_backlog.py::test_saturated_runs_identical",
    "tests/test_backlog.py::test_mixes_identical",
]
