"""Lazy gcc+ctypes loader for the C cycle kernel, and its state struct.

``_cycle_kernel.c`` is the array engine's cycle in C, and its only
definition, behind one entry, ``repro_run(state *)``: it executes
cycles until Python is needed and hands back what happened as events
that carry their cycle (the file's header has the contract).  A cycle
is a few us of C and a ctypes call costs as much again, hence one
pointer and a horizon rather than one call per cycle.  A cycle examines
only the *ready set* -- the rows whose blocking may have changed since
they were last found blocked -- which the kernel keeps across entries;
Python wakes the one row whose header it routed (``repro_wake``) and
sets ``State.rescan`` wherever else it writes per-buffer or per-port
columns itself; the next entry then rebuilds the set.  Three of its
steps are exported alone, ``repro_fold``, ``repro_refresh`` and
``repro_wake``, for the Python callers that need them without running
a cycle, ``repro_merge`` merges newly staged arrival rows into the
waiting ones, ``repro_mark`` / ``repro_remap`` let the engine reuse
packet ids, ``repro_arm`` arms closed-loop sources and
``repro_welford`` folds samples into a statistic (:func:`welford`).
:class:`State`
mirrors the C ``repro_state`` field for field, and a kernel whose
``repro_state_size()`` disagrees with ``ctypes.sizeof(State)`` is
refused instead of corrupting memory.

The kernel is compiled on first use with whatever ``cc`` the host has
(``$CC`` overrides) and :data:`CFLAGS`, cached under the system temp
directory keyed by a hash of the source and that compile command, and
loaded via :mod:`ctypes` -- but only from a
cache directory and library this user owns and nobody else can write
(the temp directory is shared: whoever created the path first would
otherwise run code in this process).  Any failure -- no compiler,
sandboxed temp dir, bad toolchain, a cache entry that fails that check,
a drifted layout -- returns ``None``: sessions asking for ``array`` then
run the ``reference`` backend (``repro.sim.backend.make_backend``), and
the process says so once in a ``RuntimeWarning`` that carries the
exception and the compiler's stderr.  ``REPRO_ARRAY_CKERNEL=0``, read at
the first load, takes the same path, as a host without a compiler.
"""

from __future__ import annotations

import ctypes
import os
import stat
import tempfile
import warnings
from typing import Optional

from repro.sim.rng import blake2b

__all__ = ["State", "Welford", "load_cycle_kernel", "source_hash",
           "welford"]

_SRC_PATH = os.path.join(os.path.dirname(__file__), "_cycle_kernel.c")

#: ``-ffp-contract=off``: the receipt accumulator rounds like Python's
#: ``OnlineStats`` only if no ``a * b + c`` becomes an FMA (aarch64, clang).
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class Welford(ctypes.Structure):
    """``welford`` of ``_cycle_kernel.c``: an OnlineStats's fields."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("n", "min", "max")]
                + [(name, ctypes.c_double) for name in ("mean", "m2")])


class State(ctypes.Structure):
    """``repro_state`` of ``_cycle_kernel.c``, in its field order; a
    pointer field ``x`` holds the address of the engine's ``_x`` array."""

    POINTERS = (
        "qlen front rhead want vcreq jof pvb pvb2 phead ptail pfid ppend "
        "dlv hdrf ne fullb rtflag isdl owner rr fs "
        "down rbase rmask qcap vcmode pv2of pnode rtab rrow rsh pbase rflat "
        "rdy pcand fptr fbuf upof "
        "bestpr bestb bestvc outdl outrf "
        "pdst ptraf psize pvcl phdr pnext popx psrc pcont "
        "acyc abuf aaid arank cring qfirst qrel "
        "sout swin squota sarm shead srank sphase sheap "
        "srate smt rtbl ev").split()
    _fields_ = (
        [(name, ctypes.c_int64) for name in (
            "B P PV SB Fm1 rstride N warmup "       # fixed while attached
            "now horizon nofast stopkinds trace rescan "    # control
            "inflight apos an nev evcap cmask ncont contflits "  # run state
            "S fireto blockend nheap phleft "    # sources
            "stop moved ejected ndl counted heard "     # outputs
            "calls cycles scanned cands flits receipts "    # work counters
            "wakes rescans sent fired coins").split()]
        + [("stops", ctypes.c_int64 * 6)]
        + [("d", Welford)]
        + [(name, ctypes.c_void_p) for name in POINTERS])


def welford(n: int, lo, hi, mean: float, m2: float, xs) -> tuple:
    """``OnlineStats.add`` of each integer of ``xs`` (a contiguous int64
    column), in order, onto ``(n, min, max, mean, m2)`` by the kernel's
    copy (``repro_welford``); returns the new summary."""
    if xs.dtype.name != "int64" or not xs.flags.c_contiguous:
        raise TypeError(f"welford folds a contiguous int64 column, not "
                        f"{xs.dtype.name}")
    w = Welford(n, int(lo) if n else 0, int(hi) if n else 0, mean, m2)
    load_cycle_kernel().repro_welford(ctypes.byref(w), xs.ctypes.data, len(xs))
    return w.n, w.min, w.max, w.mean, w.m2


_cached: Optional[ctypes.CDLL] = None
_failed = False


def _check_private(path: str, is_kind) -> None:
    """Raise unless ``path`` is a real directory / regular file
    (``is_kind`` on its ``lstat`` mode, so never a symlink) owned by
    this user with no group/other write bit.  Skipped where the
    platform has no ``os.getuid``."""
    if not hasattr(os, "getuid"):
        return
    st = os.lstat(path)
    if (not is_kind(st.st_mode) or st.st_uid != os.getuid()
            or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
        raise PermissionError(
            f"refusing to load the cycle kernel through {path}: it must "
            f"be owned by uid {os.getuid()} and writable by nobody else "
            f"(found uid {st.st_uid}, mode {stat.filemode(st.st_mode)})")


def _compiler() -> list:
    return [os.environ.get("CC", "cc"), *CFLAGS]


def source_hash() -> str:
    """The 16 hex digits that key the kernel cache (and name the kernel
    in ``--profile`` reports): the source and the compile command, so a
    changed compiler or flag never loads a stale library."""
    with open(_SRC_PATH, "rb") as fh:
        key = "\0".join(_compiler()).encode() + b"\0\0" + fh.read()
    return blake2b(key, digest_size=8).hexdigest()


def _compile_and_load() -> ctypes.CDLL:
    if os.environ.get("REPRO_ARRAY_CKERNEL") == "0":
        raise RuntimeError("REPRO_ARRAY_CKERNEL=0 stands in for a host "
                           "without a C compiler")
    tag = source_hash()
    libdir = os.path.join(tempfile.gettempdir(), "repro-ckernel")
    os.makedirs(libdir, mode=0o700, exist_ok=True)
    _check_private(libdir, stat.S_ISDIR)
    lib = os.path.join(libdir, f"cycle-{tag}.so")
    if not os.path.exists(lib):
        import subprocess

        # compile to a unique name, then atomically publish: concurrent
        # test shards may race on the same cache entry
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=libdir)
        os.close(fd)
        try:
            subprocess.run(
                [*_compiler(), "-o", tmp, _SRC_PATH],
                check=True, capture_output=True, timeout=120)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    _check_private(lib, stat.S_ISREG)
    dll = ctypes.CDLL(lib)
    dll.repro_state_size.restype = ctypes.c_int64
    dll.repro_state_size.argtypes = []
    size = dll.repro_state_size()
    if size != ctypes.sizeof(State):
        raise RuntimeError(
            f"repro_state is {size} bytes in {lib} but ckernel.State is "
            f"{ctypes.sizeof(State)}: the two layouts have drifted apart")
    for name, args in (("repro_run", []), ("repro_fold", []),
                       ("repro_refresh", [ctypes.c_int64]),
                       ("repro_wake", [ctypes.c_int64]),
                       ("repro_merge", [ctypes.c_int64]),
                       ("repro_mark", [ctypes.c_void_p, ctypes.c_int64]),
                       ("repro_remap", [ctypes.c_void_p, ctypes.c_int64]),
                       ("repro_arm", [ctypes.c_int64, ctypes.c_int64]),
                       ("repro_welford", [ctypes.c_void_p, ctypes.c_int64])):
        fn = getattr(dll, name)
        fn.restype = (None if name in ("repro_wake", "repro_merge",
                                       "repro_remap", "repro_arm",
                                       "repro_welford")
                      else ctypes.c_int64)
        fn.argtypes = [ctypes.c_void_p, *args]
    return dll


def load_cycle_kernel() -> Optional[ctypes.CDLL]:
    """The compiled cycle kernel library (``repro_run``, ``repro_fold``,
    ``repro_refresh``, ``repro_wake``, ``repro_merge``, ``repro_mark``,
    ``repro_remap``, ``repro_arm``, ``repro_welford`` typed), or
    ``None`` if it is unavailable.  The result, either way, is the
    process's."""
    global _cached, _failed
    if _cached is None and not _failed:
        try:
            _cached = _compile_and_load()
        except Exception as exc:
            # boundary that must keep running: any toolchain/loader
            # failure leaves the reference backend, reported once
            _failed = True
            msg = (f"C cycle kernel unavailable ({exc!r}); sessions run the "
                   f"reference backend")
            stderr = getattr(exc, "stderr", None)   # a failed compile
            if stderr:
                msg += "\n" + stderr.decode(errors="replace").strip()
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return _cached
