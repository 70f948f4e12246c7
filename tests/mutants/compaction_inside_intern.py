"""The packet table compacts inside ``_intern``, not at the entries that
intern: ``_intern_all`` numbers a chunk's packets from the first aid it
read before the compaction moved the table."""

T = "tests/test_backends.py::TestPacketCompaction"
SUBSTITUTIONS = [
    ("src/repro/sim/array_backend.py",
     "        if used and slots >= _COMPACT_MIN and used + k > slots:",
     "        if False:"),
    ("src/repro/sim/array_backend.py",
     """        a0 = self._used
        k = len(pkts) if cols is None else pkts
        a1 = self._used = a0 + k
""",
     """        used, slots = self._used, len(self._pdst)
        k = len(pkts) if cols is None else pkts
        if used and slots >= _COMPACT_MIN and used + k > slots:
            self._compact(used // 2)
        a0 = self._used
        a1 = self._used = a0 + k
"""),
]
KILLED_BY = [f"{T}::test_goldens_with_the_constant_forced[full_table]"]
