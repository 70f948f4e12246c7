"""With nothing in flight the clock jumps one cycle past the next arrival
row: that arrival folds, and leaves, a cycle late."""

H = "tests/test_differential.py::TestHarness"
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """                now = s->acyc[s->apos];
""",
    """                now = s->acyc[s->apos] + 1;
""",
)]
KILLED_BY = [f"{H}::test_run_summaries_covers_backends"]
