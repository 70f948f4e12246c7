"""The mark walks a pending FIFO's flits without marking its packets: a
freed slot left linked in a FIFO, whose columns the next packet interned
overwrites."""

T = "tests/test_backends.py::TestPacketCompaction"
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """            if (aid >= 0)
                live[aid] = 1;
            flits += entry_size(s, aid) - fid;""",
    """            flits += entry_size(s, aid) - fid;""",
)]
KILLED_BY = [f"{T}::test_compacted_run_is_the_uncompacted_one[mesh_bcast]"]
