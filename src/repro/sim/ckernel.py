"""Lazy gcc+ctypes loader for the C cycle kernel.

The array engine's hot loop is ~100 numpy dispatches per cycle; at the
paper's network sizes the dispatch overhead, not the arithmetic, is the
floor.  ``_cycle_kernel.c`` ports the already-validated scalar cycle
(phase A pick + ascending-port phase B commit) to C over the very same
flat arrays, leaving every Python-object effect (deliveries, dateline
vclass upgrades, route refreshes, side-deque refills) to the caller as
replayable event lists.

The kernel is compiled on first use with whatever ``cc`` the host has
(``$CC`` overrides), cached under the system temp directory keyed by a
hash of the source, and loaded via :mod:`ctypes` -- but only from a
cache directory and library this user owns and nobody else can write
(the temp directory is shared: whoever created the path first would
otherwise run code in this process).  Any failure -- no compiler,
sandboxed temp dir, bad toolchain, a cache entry that fails that check
-- returns ``None``, which leaves the engine on its scalar oracle
(``ArrayBackend._scalar_cycle``, ~3x slower at saturation), and says so
once per process in a ``RuntimeWarning`` that carries the exception and
the compiler's stderr.  ``REPRO_ARRAY_CKERNEL=0`` asks for the oracle
and is silent (the differential suite uses it to lockstep both
implementations).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
import warnings
from typing import Optional

__all__ = ["load_cycle_kernel"]

_SRC_PATH = os.path.join(os.path.dirname(__file__), "_cycle_kernel.c")

#: 5 geometry scalars, then 29 array pointers, in the exact order of
#: the C signature.  Pointers are passed as raw addresses (c_void_p).
_ARGTYPES = [ctypes.c_longlong] * 5 + [ctypes.c_void_p] * 29

_cached: Optional[ctypes.CFUNCTYPE] = None
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


def _compile_and_load() -> Optional["ctypes._CFuncPtr"]:
    with open(_SRC_PATH, "rb") as fh:
        src = fh.read()
    tag = hashlib.sha256(src).hexdigest()[:16]
    libdir = os.path.join(tempfile.gettempdir(), "repro-ckernel")
    os.makedirs(libdir, mode=0o700, exist_ok=True)
    _check_private(libdir, stat.S_ISDIR)
    lib = os.path.join(libdir, f"cycle-{tag}.so")
    if not os.path.exists(lib):
        cc = os.environ.get("CC", "cc")
        # compile to a unique name, then atomically publish: concurrent
        # test shards may race on the same cache entry
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=libdir)
        os.close(fd)
        try:
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp, _SRC_PATH],
                check=True, capture_output=True, timeout=120)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    _check_private(lib, stat.S_ISREG)
    dll = ctypes.CDLL(lib)
    fn = dll.repro_cycle
    fn.restype = ctypes.c_longlong
    fn.argtypes = _ARGTYPES
    return fn


def load_cycle_kernel():
    """The compiled cycle kernel, or ``None`` if disabled/unavailable.

    The env gate is re-read on every call (tests toggle it per attach);
    only the compile/load result itself is cached.
    """
    global _cached, _failed
    if os.environ.get("REPRO_ARRAY_CKERNEL", "1") == "0":
        return None
    if _cached is None and not _failed:
        try:
            _cached = _compile_and_load()
        except Exception as exc:
            # boundary that must keep running: any toolchain/loader
            # failure leaves a working (slower) engine, reported once
            _failed = True
            msg = (f"C cycle kernel unavailable ({exc!r}); --backend array "
                   f"now runs its scalar oracle, ~3x slower at saturation")
            stderr = getattr(exc, "stderr", None)   # a failed compile
            if stderr:
                msg += "\n" + stderr.decode(errors="replace").strip()
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return _cached
