"""Build, cache and load the compiled DFS kernel (_dfs.c).

The kernel is compiled on first use with `cc` and CFLAGS into this
package's __pycache__ directory, under a name keyed by a hash of the C
source and the interpreter's extension tag, so a changed source or another
interpreter gets its own build.  The library is written to a temporary file
and moved into place, so concurrent processes never load half a file.
load() returns None when anything fails -- no compiler, a compile error, an
unwritable directory, a dlopen error -- and the solver then runs its Python
reference search.  Nothing is built at import: the solver imports this
module at its first search, and load() builds or loads the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

from .solver import SearchLimitError, _Plan

SOURCE = Path(__file__).with_name("_dfs.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
CFLAGS = ("-O2", "-shared", "-fPIC")


def library_path() -> Path:
    """Where the build of the current source for this interpreter lives."""
    key = zlib.crc32(SOURCE.read_bytes() + EXTENSION_SUFFIXES[0].encode())
    return CACHE_DIR / f"_dfs-{key:08x}.so"


def _compile(target: Path) -> None:
    """Compile SOURCE to target, or raise OSError."""
    import subprocess
    import tempfile

    target.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            ["cc", *CFLAGS, "-o", tmp, str(SOURCE)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        if proc.returncode != 0:
            raise OSError(f"cc exited {proc.returncode}: {proc.stderr[-300:]!r}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class Plan(ctypes.Structure):
    """The ctypes mirror of _dfs.c's Plan struct: p, the number of
    positions, then solver._Plan's fields but order, named and ordered as
    there."""

    _fields_ = [("p", ctypes.c_int),
                *((name, ctypes.POINTER(ctypes.c_int)) for name in _Plan._fields if name != "order")]


def plan_struct(plan: _Plan) -> Plan:
    """plan as a Plan struct, which keeps its int arrays alive."""
    arrays = (getattr(plan, name) for name, _ in Plan._fields_[1:])
    return Plan(len(plan.deg), *((ctypes.c_int * len(a))(*a) for a in arrays))


@functools.cache
def load():
    """The kernel as a function dfs(plan, n_total, pins) -> (labels per
    order position or None, nodes), with the arguments and the result of
    solver._run_search; like it, the kernel derives q and the complement
    cut from those.  dfs hands semdef_dfs the plan as a plan_struct,
    converted once per plan: it keeps the struct of the last plan it saw and
    reuses it while the same plan object comes back, as it does for every
    filler count of one deficiency call.  It raises SearchLimitError when
    the kernel cannot allocate its tables.  None when the kernel cannot be
    built or loaded.  The outcome is kept for the life of the process."""
    try:
        path = library_path()
        if not path.is_file():
            _compile(path)
        fn = ctypes.CDLL(str(path)).semdef_dfs
    except OSError:
        return None
    fn.argtypes = [ctypes.POINTER(Plan), ctypes.c_int, ctypes.c_int,
                   ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_longlong)]
    fn.restype = ctypes.c_int
    last = (None, None)  # the last plan seen and its struct

    def dfs(plan, n_total: int, pins: int):
        nonlocal last
        seen, struct = last
        if seen is not plan:
            struct = plan_struct(plan)
            last = plan, struct
        labels = (ctypes.c_int * len(plan.deg))()
        nodes = ctypes.c_longlong()
        found = fn(struct, n_total, pins, labels, ctypes.byref(nodes))
        if found < 0:
            raise SearchLimitError("the search kernel could not allocate its completion "
                                   f"tables for {len(plan.deg)} vertices")
        return (list(labels) if found else None), nodes.value

    return dfs
