"""The packet table compacts inside ``_intern``, not at the entries that
intern: ``_intern_all`` numbers a chunk's packets from the first aid it
read before the compaction moved the table."""

T = "tests/test_backends.py::TestPacketCompaction"
SUBSTITUTIONS = [
    ("src/repro/sim/array_backend.py",
     "        if used and slots >= _COMPACT_MIN and used + k > slots:",
     "        if False:"),
    ("src/repro/sim/array_backend.py",
     """        a0 = len(self._pkts)
        a1 = a0 + len(pkts)
        if a1 > len(self._pdst):
            self._grow(_PCOLS, a1, a0)
""",
     """        used, slots = len(self._pkts), len(self._pdst)
        if used and slots >= _COMPACT_MIN and used + len(pkts) > slots:
            self._compact(used // 2)
        a0 = len(self._pkts)
        a1 = a0 + len(pkts)
        if a1 > len(self._pdst):
            self._grow(_PCOLS, a1, a0)
"""),
]
KILLED_BY = [f"{T}::test_goldens_with_the_constant_forced[full_table]"]
