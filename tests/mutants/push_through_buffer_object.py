"""``Adapter._push`` always pushes into the buffer object, never stages
the packet by its row while the graph is unbuilt: every relay segment,
software broadcast or object send builds the graph."""

QUEUES = "tests/test_backends.py::TestQueuesOnDemand"
OBJECTS = "tests/test_backends.py::TestObjectsOnDemand"
SUBSTITUTIONS = [(
    "src/repro/noc/network.py",
    "        if net.built is None and net.state_owner is not None:\n",
    "        if False:\n",
)]
KILLED_BY = [
    f"{QUEUES}::test_array_run_holds_no_queue[quarc-0.1-relay]",
    f"{QUEUES}::test_array_run_holds_no_queue[mesh-0.1]",
    f"{OBJECTS}::test_send_after_attach_reaches_the_engine[False]",
]
