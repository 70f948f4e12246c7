"""The packet-table mark skips the reply a live request names (``pcont``):
a compaction frees the reply of a request in flight, and its tail files a
slot some other packet now holds."""

C = "tests/test_differential.py::test_corpus"

SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """    for (i = 0; i < used; i++)
        if (live[i] && s->pcont[i] > 0)
            live[(s->pcont[i] & CONT_AID) - 1] = 1;
""",
    "",
)]
KILLED_BY = [f"{C}[20260726-1-quarc-compact]"]
