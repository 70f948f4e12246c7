"""``_build_static`` asks the network's router 0 for the route tables
rather than an unwired probe router, and so builds the graph."""

QUEUES = "tests/test_backends.py::TestQueuesOnDemand"
SUBSTITUTIONS = [(
    "src/repro/sim/array_backend.py",
    "            rows, flags = self._router_rows(w.router(0))\n",
    "            rows, flags = self._router_rows(net.routers[0])\n",
)]
KILLED_BY = [
    f"{QUEUES}::test_array_run_holds_no_queue[quarc-0.1]",
    f"{QUEUES}::test_array_run_holds_no_queue[torus-0.1]",
]
