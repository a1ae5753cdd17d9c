"""Build, cache and load the compiled DFS kernel (_dfs.c).

The kernel is compiled on first use with `cc` and CFLAGS into this
package's __pycache__ directory, under a name keyed by a hash of the C
source and the interpreter's extension tag, so a changed source or another
interpreter gets its own build.  The library is written to a temporary file
and moved into place, so concurrent processes never load half a file.
load() returns None when anything fails -- no compiler, a compile error, an
unwritable directory, a dlopen error -- and the solver then runs its Python
reference search.  Nothing here runs at import; ctypes is imported by load().
"""

from __future__ import annotations

import functools
import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

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


@functools.cache
def plan_type():
    """The ctypes mirror of _dfs.c's Plan struct: p, the number of
    positions, then solver._Plan's fields but order, named and ordered as
    there."""
    import ctypes

    i32p = ctypes.POINTER(ctypes.c_int)

    class Plan(ctypes.Structure):
        _fields_ = [("p", ctypes.c_int), ("deg", i32p), ("pstart", i32p), ("prior", i32p),
                    ("orbit_prev", i32p), ("inner", i32p), ("ostart", i32p), ("open", i32p)]

    return Plan


def plan_struct(plan):
    """plan as a plan_type() struct, which keeps its int arrays alive."""
    import ctypes

    struct = plan_type()
    arrays = (getattr(plan, name) for name, _ in struct._fields_[1:])
    return struct(len(plan.deg), *((ctypes.c_int * len(a))(*a) for a in arrays))


@functools.cache
def load():
    """The kernel as a function dfs(plan, q, n_total, ntop, pins) -> (labels
    per order position or None, nodes), with the arguments and the result of
    solver._run_search.  dfs hands semdef_dfs the plan as a plan_struct,
    converted once per plan: it keeps the struct of the last plan it saw and
    reuses it while the same plan object comes back, as it does for every
    filler count of one deficiency call.  None when the kernel cannot be
    built or loaded.  The outcome is kept for the life of the process."""
    import ctypes

    try:
        path = library_path()
        if not path.is_file():
            _compile(path)
        fn = ctypes.CDLL(str(path)).semdef_dfs
    except OSError:
        return None
    fn.argtypes = [ctypes.POINTER(plan_type()), ctypes.c_int, ctypes.c_int, ctypes.c_int,
                   ctypes.c_int, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_longlong)]
    fn.restype = ctypes.c_int
    last = (None, None)  # the last plan seen and its struct

    def dfs(plan, q: int, n_total: int, ntop: int, pins: int):
        nonlocal last
        seen, struct = last
        if seen is not plan:
            struct = plan_struct(plan)
            last = plan, struct
        labels = (ctypes.c_int * len(plan.deg))()
        nodes = ctypes.c_longlong()
        found = fn(struct, q, n_total, ntop, pins, labels, ctypes.byref(nodes))
        if found < 0:
            raise MemoryError("search kernel could not allocate its tables")
        return (list(labels) if found else None), nodes.value

    return dfs
