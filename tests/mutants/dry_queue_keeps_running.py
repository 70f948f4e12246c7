"""A queue whose packets ran out with records behind them does not end
the batch: its ring drains while its records wait to be interned."""

SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """        if (s->ndry) {          /* Python interns, then re-enters `now` */""",
    """        if (0) {""",
), (
    "src/repro/sim/_cycle_kernel.c",
    """        if (s->ndry) {
            stop = STOP_RECORDS;
            break;
        }
    }""",
    """    }""",
)]
KILLED_BY = [
    "tests/test_backlog.py::test_saturated_runs_identical",
]
