"""A unicast tail's delivery is booked a cycle after the tail reached the
PE: every latency one cycle long."""

H = "tests/test_differential.py::TestHarness"
G = ("tests/test_golden.py::TestGoldenFixtures::"
     "test_no_drift_from_seed_semantics[quarc16_uniform]")
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """    emit(s, EV_DELIVERY, now, (aid << 16) | p);
""",
    """    emit(s, EV_DELIVERY, now + 1, (aid << 16) | p);
""",
)]
KILLED_BY = [f"{H}::test_run_summaries_covers_backends", G]
