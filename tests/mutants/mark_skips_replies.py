"""The packet-table mark skips the reply a live request names (``pcont``):
a compaction frees the reply of a request in flight, and its tail files a
slot some other packet now holds."""

T = "tests/test_backends.py::TestPacketCompaction"
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """    for (i = 0; i < used; i++)
        if (live[i] && s->pcont[i] > 0)
            live[(s->pcont[i] & CONT_AID) - 1] = 1;
""",
    "",
)]
KILLED_BY = [f"{T}::test_compacted_run_is_the_uncompacted_one[coherence]"]
