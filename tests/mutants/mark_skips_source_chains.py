"""The packet-table mark skips the requests a closed-loop source has yet
to fire (``shead`` chains): a compaction frees them and the sources run
dry at every entry, so ``_intern_requests`` doubles their stock without
end -- the named case dies under the runner's memory cap (a
MemoryError, or the kernel crashes on a table it could not grow)."""

C = "tests/test_differential.py::test_corpus"

SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """    for (i = 0; i < s->S; i++)
        mark_chain(s, live, s->shead[i]);
""",
    "",
)]
KILLED_BY = [f"{C}[20260726-1-quarc-compact]"]
