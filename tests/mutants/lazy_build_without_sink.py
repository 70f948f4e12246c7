"""A graph first built while an engine owns the state leaves every
buffer's ``sink`` unset: a packet pushed into a buffer object goes into
its stale queue, and the engine never sees it."""

OBJECTS = "tests/test_backends.py::TestObjectsOnDemand"
SUBSTITUTIONS = [(
    "src/repro/noc/network.py",
    "                    b.sink = owner.rows\n",
    "                    pass\n",
)]
KILLED_BY = [
    f"{OBJECTS}::test_send_after_attach_reaches_the_engine[True]",
    f"{OBJECTS}::test_faulted_run_builds_it_for_its_fault_state",
]
