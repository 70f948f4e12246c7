"""A pushed-into row is marked full one flit past its capacity: a flit
may be granted into a full buffer."""

H = "tests/test_differential.py::TestHarness"
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """                if (dql + 1 >= qcap[dst])
""",
    """                if (dql + 1 > qcap[dst])
""",
)]
KILLED_BY = [f"{H}::test_identical_wedge_is_an_error_not_agreement"]
