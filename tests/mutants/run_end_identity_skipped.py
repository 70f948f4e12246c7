"""No flit identity at the end of a run: a record lost before it folds
(never in flight, so no mark walks it) goes unnamed."""

SUBSTITUTIONS = [(
    "src/repro/sim/backend.py",
    """        if self._flit_balance() != balance:""",
    """        if False:""",
)]
KILLED_BY = [
    "tests/test_backlog.py::"
    "test_a_dropped_record_breaks_the_flit_identity",
]
