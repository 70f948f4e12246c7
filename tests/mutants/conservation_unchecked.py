"""The packet-table mark no longer checks the flits it walked against the
flits in flight: a lost flit goes on unnamed."""

T = "tests/test_backends.py::TestPacketCompaction"
SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    "        if flits != self._st.inflight:",
    "        if False:",
)]
KILLED_BY = [f"{T}::test_a_lost_flit_is_named"]
