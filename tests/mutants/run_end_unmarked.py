"""No packet-table mark at the end of an array run: a flit lost or
gained goes unnamed unless the table happens to compact."""

SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    """        self._sync(ops=True)
        self._live()
""",
    """        self._sync(ops=True)
""",
)]
KILLED_BY = [
    "tests/test_backends.py::TestPacketCompaction::"
    "test_every_run_ends_conserved",
]
