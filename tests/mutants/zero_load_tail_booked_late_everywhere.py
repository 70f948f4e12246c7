"""Both engines book a unicast tail a cycle after it reaches the PE: every
latency one cycle long, alike on the reference and the array engine, so
no comparison of the two sees it.  The zero-load identity does (and the
golden fixtures, which pin absolute latencies)."""

Z = "tests/test_zero_load.py::test_lone_unicast_takes_hops_plus_length"
SUBSTITUTIONS = [(
    "src/repro/sim/_cycle_kernel.c",
    """    emit(s, EV_DELIVERY, now, (aid << 16) | p);
""",
    """    emit(s, EV_DELIVERY, now + 1, (aid << 16) | p);
""",
), (
    "src/repro/noc/network.py",
    """            self.collector.on_unicast(pkt, now)
""",
    """            self.collector.on_unicast(pkt, now + 1)
""",
)]
KILLED_BY = [f"{Z}[8-quarc-reference]", f"{Z}[8-quarc-array]"]
