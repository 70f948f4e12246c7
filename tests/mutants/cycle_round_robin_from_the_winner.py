"""Round-robin restarts at the winner, not the feeder after it: the
winner keeps the highest priority."""

H = "tests/test_differential.py::TestHarness"
G = ("tests/test_golden.py::TestGoldenFixtures::"
     "test_no_drift_from_seed_semantics[quarc16_uniform]")
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """            rr[p] = jof[b] + 1;
""",
    """            rr[p] = jof[b];
""",
)]
KILLED_BY = [f"{H}::test_lockstep_agreement_reports_none", G]
