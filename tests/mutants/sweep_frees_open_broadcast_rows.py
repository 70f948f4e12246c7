"""The sweep frees the branches of an open broadcast row that left the
network: a live slot freed.  The row's completion, or the op built from
it, then reads another packet's columns."""

T = "tests/test_backends.py::TestPacketCompaction"
SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    """        live[[a for e in self._slot_op if type(e) is tuple
              for a in e[0]]] = 1       # open broadcast rows' branches
""",
    "",
)]
KILLED_BY = [f"{T}::test_compacted_run_is_the_uncompacted_one[quarc_beta]"]
