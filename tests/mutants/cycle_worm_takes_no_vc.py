"""A header flit does not take its output VC: another packet's flits may
interleave with the worm."""

H = "tests/test_differential.py::TestHarness"
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """            if (headf && !tail)
""",
    """            if (0)
""",
)]
KILLED_BY = [f"{H}::test_run_summaries_covers_backends"]
