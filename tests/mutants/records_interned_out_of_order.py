"""A refill interns a queue's records last first: the packets leave
their source queue in another order than they arrived."""

C = "tests/test_differential.py::test_corpus"

SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    """        aids = self._intern_records(out[:n], np.repeat(q, want[q]))""",
    """        out[:n] = np.concatenate([r[::-1] for r in np.split(
            out[:n], np.cumsum(want[q])[:-1])])
        aids = self._intern_records(out[:n], np.repeat(q, want[q]))""",
)]
KILLED_BY = [f"{C}[20260726-23-torus-stock]"]
