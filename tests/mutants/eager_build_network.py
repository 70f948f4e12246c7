"""``build_network`` builds the router object graph at once, as before
objects were built on demand: every run reads ``objects: built at cycle
0`` and holds a buffer object per queue."""

QUEUES = "tests/test_backends.py::TestQueuesOnDemand"
OBJECTS = "tests/test_backends.py::TestObjectsOnDemand"
SUBSTITUTIONS = [(
    "src/repro/core/api.py",
    """    return Network(Wiring(cls, n, topo, buffer_depth), adapters,
                   name=kind), topo
""",
    """    net = Network(Wiring(cls, n, topo, buffer_depth), adapters,
                  name=kind)
    net.routers
    return net, topo
""",
)]
KILLED_BY = [
    f"{QUEUES}::test_array_run_holds_no_queue[quarc-0.1]",
    f"{OBJECTS}::test_send_after_attach_reaches_the_engine[False]",
]
