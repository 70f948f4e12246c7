"""The mark walks a pending FIFO's flits without marking its packets: a
freed slot left linked in a FIFO, whose columns the next packet interned
overwrites.  On some cases the relinked slot closes a ``pnext`` cycle
and the kernel walks it forever (the corpus's mesh and torus ``compact``
cases); the named one fails."""

C = "tests/test_differential.py::test_corpus"

SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """            if (aid >= 0)
                live[aid] = 1;
            flits += entry_size(s, aid) - fid;""",
    """            flits += entry_size(s, aid) - fid;""",
)]
KILLED_BY = [f"{C}[20260726-1-quarc-compact]"]
