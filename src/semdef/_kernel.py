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
def load():
    """The kernel as a function dfs(plan, q, n_total, ntop, pins) -> (labels
    per order position or None, nodes), with the arguments and the result of
    solver._run_search; plan's arrays go to semdef_dfs as they are.  None
    when the kernel cannot be built or loaded.  The outcome is kept for the
    life of the process."""
    import ctypes

    try:
        path = library_path()
        if not path.is_file():
            _compile(path)
        fn = ctypes.CDLL(str(path)).semdef_dfs
    except OSError:
        return None
    i32p = ctypes.POINTER(ctypes.c_int)
    fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int, i32p, i32p, i32p,
                   ctypes.c_int, ctypes.c_int, i32p, i32p, i32p, i32p, i32p,
                   ctypes.POINTER(ctypes.c_longlong)]
    fn.restype = ctypes.c_int

    def ints(values: list[int]):
        return (ctypes.c_int * len(values))(*values)

    def dfs(plan, q: int, n_total: int, ntop: int, pins: int):
        p = len(plan.deg)
        labels = (ctypes.c_int * p)()
        nodes = ctypes.c_longlong()
        found = fn(p, q, n_total, ints(plan.deg), ints(plan.pstart), ints(plan.prior),
                   ntop, pins, ints(plan.orbit_prev), ints(plan.inner), ints(plan.ostart),
                   ints(plan.open), labels, ctypes.byref(nodes))
        if found < 0:
            raise MemoryError("search kernel could not allocate its tables")
        return (list(labels) if found else None), nodes.value

    return dfs
