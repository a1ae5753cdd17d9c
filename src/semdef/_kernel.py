"""Build, cache and load the compiled kernel (_dfs.c): plan builder and DFS.

The kernel is compiled on first use by one cc command with cflags() (build)
into this package's __pycache__ directory, named _dfs-<hash> and the
interpreter's extension suffix, the hash that of the C source and the
flags, so a changed source, changed flags or another interpreter get a
build of their own; once a build is in place, this interpreter's older
builds are removed, and other interpreters' stay.  cflags() adds -mpopcnt to
CFLAGS, so that the search counts bits with the CPU's popcount
instruction, only on an x86-64 whose CPU reports popcnt (the flags line of
/proc/cpuinfo, read when the flags are asked for, never at import); no
build uses an instruction its CPU lacks, and no setting chooses the flags.  The library
is written to a temporary file and moved into place, so concurrent
processes never load half a file.
load() returns None when anything fails -- no compiler, a compile error, an
unwritable directory, a dlopen error -- and the solver then runs
solver._solve, its Python reference.  When the kernel loads, each find_sem
or deficiency call makes one call of semdef_solve, the kernel's one search
entry, which builds the plan too: _orbits is not imported.  Nothing is built at import: the solver
imports this module once, at its first search, and load() builds or loads
the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import os
import struct
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

from .solver import SearchLimitError, _Plan

SOURCE = Path(__file__).with_name("_dfs.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
CFLAGS = ("-O2", "-shared", "-fPIC")  # the library, on any CPU


def _cpu() -> tuple[str, str]:
    """This machine's name and the first flags line of its /proc/cpuinfo,
    ("", "") where there is none."""
    try:
        with open("/proc/cpuinfo") as f:
            return os.uname().machine, next((line for line in f if line.startswith("flags")), "")
    except OSError:
        return "", ""


def cflags() -> tuple[str, ...]:
    """The flags of the library on this machine: CFLAGS, and -mpopcnt on an
    x86-64 whose CPU reports popcnt, so no build uses an instruction that
    its CPU lacks."""
    machine, flags = _cpu()
    popcnt = machine == "x86_64" and "popcnt" in flags.partition(":")[2].split()
    return (*CFLAGS, *(["-mpopcnt"] if popcnt else []))


def library_path() -> Path:
    """Where the build of the current source, with the current flags, for
    this interpreter lives."""
    key = zlib.crc32(SOURCE.read_bytes() + repr(cflags()).encode())
    return CACHE_DIR / f"_dfs-{key:08x}{EXTENSION_SUFFIXES[0]}"


def build(source: Path, target: Path, *extra: str) -> None:
    """Compile source, a _dfs.c, to the library target with cflags(), then
    the extra flags.  Raises OSError when cc fails."""
    import subprocess

    proc = subprocess.run(["cc", *cflags(), *extra, "-o", str(target), str(source)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise OSError(f"cc exited {proc.returncode}: {proc.stderr[-300:]!r}")


def _compile(target: Path) -> None:
    """Build SOURCE to target, or raise OSError; then remove this
    interpreter's other builds from target's directory."""
    import tempfile

    target.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        build(SOURCE, Path(tmp))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for old in target.parent.glob(f"_dfs-*{EXTENSION_SUFFIXES[0]}"):
        if old != target:
            old.unlink(missing_ok=True)


class CPlan:
    """A plan semdef_plan built, in the kernel's own int buffer, which is
    freed with this object."""

    __slots__ = ("buf", "p", "_free")

    def __init__(self, buf, p: int, free):
        self.buf, self.p, self._free = buf, p, free

    def __del__(self):
        self._free(self.buf)

    def fields(self) -> _Plan:
        """The plan as solver._Plan, field for field, read from the buffer in
        semdef_plan's layout: for the tests and tools/kernel_ab.py."""
        p, at, out = self.p, 1, []
        for size in (p, p, p + 1, None, p, p, p + 1, None, p + 1, None):
            if size is None:  # prior's q = pstart[p], open's ostart[p], common's cstart[p]
                size = out[-1][-1]
            out.append(self.buf[at:at + size])
            at += size
        return _Plan(*out)


class Kernel(NamedTuple):
    """The compiled backend: solve(g, t0, t1, pins) with the arguments and
    the result of solver._solve, its one search; and, for the tests and
    tools/kernel_ab.py, plan(g) -> CPlan, to compare with solver._plan."""

    plan: Callable
    solve: Callable


# The most labels semdef_solve takes: 2n + 64, the bits of its bitsets, must
# fit a C int.  solve searches up to it, and raises SearchLimitError, naming
# it, when it finds no witness there and the call asks for more.
MAX_LABELS = (2**31 - 1 - 64) // 2


def _edges(g) -> bytes:
    """g's edges as packed C ints, in Graph.edges order."""
    return struct.pack(f"{2 * len(g.edges)}i", *chain.from_iterable(g.edges))


# What the kernel could not allocate, by semdef_solve's return code
_LIMITS = {-2: "the plan of", -3: "its completion tables for"}


def _limit(code: int, p: int) -> SearchLimitError:
    return SearchLimitError(f"the search kernel could not allocate {_LIMITS[code]} {p} vertices")


def bind(lib: ctypes.CDLL) -> Kernel:
    """The Kernel of a loaded build of _dfs.c.  The edges go in as bytes of
    packed C ints, and the witness comes back in a bytearray, passed through
    one zero-length ctypes array type made here: an array type made per
    call, for a length, costs tens of microseconds once the garbage
    collector has dropped ctypes' cached one."""
    c_int, int_p = ctypes.c_int, ctypes.POINTER(ctypes.c_int)
    ll_p = ctypes.POINTER(ctypes.c_longlong)
    lib.semdef_plan.argtypes = [c_int, c_int, ctypes.c_char_p]
    lib.semdef_plan.restype = int_p
    lib.semdef_free.argtypes = [int_p]
    lib.semdef_free.restype = None
    lib.semdef_solve.argtypes = [c_int, c_int, ctypes.c_char_p, c_int, c_int, c_int, int_p, ll_p]
    lib.semdef_solve.restype = c_int
    make, free, run = lib.semdef_plan, lib.semdef_free, lib.semdef_solve
    ints = c_int * 0

    def plan(g) -> CPlan:
        buf = make(g.vertex_count, len(g.edges), _edges(g))
        if not buf:
            raise _limit(-2, g.vertex_count)
        return CPlan(buf, g.vertex_count, free)

    def solve(g, t0: int, t1: int, pins: int):
        p = g.vertex_count
        top = min(t1, MAX_LABELS - p)
        labels, nodes = bytearray(ctypes.sizeof(c_int) * p), ctypes.c_longlong()
        t = run(p, len(g.edges), _edges(g), min(t0, top + 1), top, pins,
                ints.from_buffer(labels), ctypes.byref(nodes))
        if t < -1:
            raise _limit(t, p)
        if t == -1 and top < t1:
            raise SearchLimitError(f"the search kernel takes at most MAX_LABELS = {MAX_LABELS} "
                                   f"labels and found no witness up to them, but {p + t1} "
                                   "were asked for")
        if t < 0:
            return None, None, nodes.value
        return t, memoryview(labels).cast("i").tolist(), nodes.value

    return Kernel(plan, solve)


@functools.cache
def load() -> Kernel | None:
    """The kernel, built and loaded, or None when it cannot be built or
    loaded.  Its solve runs one find_sem or deficiency call's searches, plan
    included, and raises SearchLimitError when the kernel cannot allocate
    the plan or its tables, or when no witness lies within MAX_LABELS labels
    and the call asks for more.  The outcome is kept for the life of the
    process."""
    try:
        path = library_path()
        if not path.is_file():
            _compile(path)
        return bind(ctypes.CDLL(str(path)))
    except OSError:
        return None
