"""A broadcast flit passing through a node is not delivered to it (no
deliver-clone): the node never receives the broadcast."""

H = "tests/test_differential.py::TestHarness"
G = ("tests/test_golden.py::TestGoldenFixtures::"
     "test_no_drift_from_seed_semantics[quarc16_uniform]")
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """            if (tail && dlv[b])
""",
    """            if (0)
""",
)]
KILLED_BY = [f"{H}::test_run_summaries_covers_backends", G]
