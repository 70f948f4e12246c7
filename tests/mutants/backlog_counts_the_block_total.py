"""The backlog rule counts a window's arrivals to a queue as if none left
before the last one came (no drain allowance): a long window below the
knee turns arrivals into records, and the kernel stops to refill them."""

SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    """            ahead += held[q] - 2 * (sent[q] * dt // now if now else dt)""",
    """            ahead += held[q]""",
)]
KILLED_BY = [
    "tests/test_backlog.py::test_healthy_runs_make_no_records",
]
