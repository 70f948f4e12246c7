"""Attaching to a fresh network reads its (empty) object graph instead of
taking the arrays' zero state, and so builds it."""

QUEUES = "tests/test_backends.py::TestQueuesOnDemand"
OBJECTS = "tests/test_backends.py::TestObjectsOnDemand"
SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    """        self.net.state_owner = self
        if self.net.built is None:
            return
""",
    """        self.net.state_owner = self
""",
)]
KILLED_BY = [
    f"{QUEUES}::test_array_run_holds_no_queue[quarc-0.1]",
    f"{OBJECTS}::test_send_after_attach_reaches_the_engine[False]",
]
