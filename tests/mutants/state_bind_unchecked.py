"""``State.bind`` trusts the array it is handed: a column of the wrong
width is read by the kernel as other numbers, silently."""

SUBSTITUTIONS = [(
    "src/repro/sim/ckernel.py",
    """        if arr.dtype.name != want or not arr.flags.c_contiguous:""",
    """        if False:""",
)]
KILLED_BY = [
    "tests/test_backlog.py::TestStateBind",
]
