"""The packet table grows past ``MAX_PACKET_SLOTS`` unchecked: aids
wrap in the int32 columns instead of a named refusal."""

SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    "        if names is _PCOLS:\n",
    "        if False:\n",
)]
KILLED_BY = [
    "tests/test_backends.py::TestPacketCompaction::"
    "test_a_table_past_the_slot_limit_is_refused",
]
