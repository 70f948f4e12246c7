"""A tail that releases its output VC wakes none of the port's feeders: a
row blocked on the owner stays out of the ready set."""

H = "tests/test_differential.py::TestHarness"
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """                owner[pv] = -1;
                wake_port(s, p);
""",
    """                owner[pv] = -1;
""",
)]
KILLED_BY = [f"{H}::test_run_summaries_covers_backends"]
