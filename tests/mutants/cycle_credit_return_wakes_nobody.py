"""A pop from a full row wakes nobody: the rows feeding its upstream port
stay out of the ready set though their downstream has room again."""

H = "tests/test_differential.py::TestHarness"
G = ("tests/test_golden.py::TestGoldenFixtures::"
     "test_no_drift_from_seed_semantics[quarc16_uniform]")
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """            if (fullb[b] && upof[b] >= 0)
                wake_port(s, upof[b] >> 1);
""",
    """            if (fullb[b] && upof[b] >= 0)
                ;
""",
)]
KILLED_BY = [f"{H}::test_identical_wedge_is_an_error_not_agreement", G]
