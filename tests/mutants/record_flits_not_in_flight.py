"""A record joins its queue without its flits counting in flight: the
idle jump and every mark then see a queue lighter than it is."""

C = "tests/test_differential.py::test_corpus"

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
    f"{C}[20260726-23-torus-stock]",
    "tests/test_backlog.py::test_every_run_balances_its_flits",
]
