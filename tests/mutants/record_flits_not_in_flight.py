"""A record joins its queue without its flits counting in flight: the
idle jump and every mark then see a queue lighter than it is."""

SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """    s->ppend[b] += size;
    s->inflight += size;
    s->ne[b] = 1;""",
    """    s->ppend[b] += size;
    if (e >= 0)
        s->inflight += size;
    s->ne[b] = 1;""",
)]
KILLED_BY = [
    "tests/test_backlog.py::test_saturated_runs_identical",
    "tests/test_backlog.py::test_every_run_balances_its_flits",
]
