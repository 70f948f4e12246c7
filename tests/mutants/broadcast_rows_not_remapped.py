"""A compaction leaves an open broadcast row's first aid (``_slot_op``)
where it was: the op is completed, or built, from another packet's
columns."""

T = "tests/test_backends.py::TestPacketCompaction"
SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    "                ops[x] = (int(new_of[e[0]]), e[1])",
    "                ops[x] = (e[0], e[1])",
)]
KILLED_BY = [f"{T}::test_compacted_run_is_the_uncompacted_one[quarc_beta]"]
