"""A header whose requested VC is owned or whose downstream is full never
falls back to VC 1."""

H = "tests/test_differential.py::TestHarness"
G = ("tests/test_golden.py::TestGoldenFixtures::"
     "test_no_drift_from_seed_semantics[quarc16_uniform]")
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """                        else if (pv2 < PV && owner[pv2] == -1
""",
    """                        else if (0 && owner[pv2] == -1
""",
)]
KILLED_BY = [f"{H}::test_identical_wedge_is_an_error_not_agreement", G]
