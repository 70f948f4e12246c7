"""A flit crossing a dateline link leaves its packet's class as it was:
the torus's deadlock-free VC split is lost."""

H = "tests/test_differential.py::TestHarness"
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """            s->pvcl[aid] = 1;
""",
    "",
)]
KILLED_BY = [f"{H}::test_lockstep_agreement_reports_none"]
