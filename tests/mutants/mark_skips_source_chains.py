"""The packet-table mark skips the requests a closed-loop source has yet
to fire (``shead`` chains): a compaction frees them and the sources run
dry at every entry, so ``_intern_requests`` doubles their stock without
end -- the named test dies of a MemoryError under the runner's cap."""

T = "tests/test_backends.py::TestPacketCompaction"
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """    for (i = 0; i < s->S; i++)
        mark_chain(s, live, s->shead[i]);
""",
    "",
)]
KILLED_BY = [f"{T}::test_compacted_run_is_the_uncompacted_one[coherence]"]
