"""Build, cache and load the compiled kernel (_dfs.c): plan builder and DFS.

The kernel is a CPython extension module, semdef._dfs, compiled on first
use by one cc command (build) with cflags() and Python's include directory
into this package's __pycache__ directory, named _dfs-<hash> and the
interpreter's extension suffix, the hash that of the C source and the
flags, so a changed source, changed flags or another interpreter get a
build of their own; once a build is in place, this interpreter's older
builds are removed, and those named before the suffix was added, while
other interpreters' stay.  cflags() adds -mpopcnt to CFLAGS, so that the
search counts bits with the CPU's popcount instruction, only on an x86-64
whose CPU reports popcnt (the flags line of /proc/cpuinfo, read when the
flags are asked for, never at import); no build uses an instruction its CPU
lacks, and no setting chooses the flags.  The module is written to a
temporary file and moved into place, so concurrent processes never load
half a file.  A cached build is imported with
importlib.machinery.ExtensionFileLoader, and never entered in sys.modules;
that path imports neither sysconfig nor subprocess, which only a build
needs.  load() returns None when anything fails -- no compiler, no Python
headers, a compile error, an unwritable directory, an import error -- and
the solver then runs solver._solve, its Python reference.  When the kernel
loads, each find_sem or deficiency call makes one call of the module's
solve, the kernel's one search entry, which reads Graph.edges as it is and
builds the plan too: _orbits is not imported.  Nothing is built at import:
the solver imports this module once, at its first search, and load()
builds or loads the kernel.
"""

from __future__ import annotations

import functools
import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
from pathlib import Path
from typing import Callable, NamedTuple

from .solver import SearchLimitError, _Plan

SOURCE = Path(__file__).with_name("_dfs.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
CFLAGS = ("-O2", "-shared", "-fPIC")  # the module, on any CPU


def _cpu() -> tuple[str, str]:
    """This machine's name and the first flags line of its /proc/cpuinfo,
    ("", "") where there is none."""
    try:
        with open("/proc/cpuinfo") as f:
            return os.uname().machine, next((line for line in f if line.startswith("flags")), "")
    except OSError:
        return "", ""


def cflags() -> tuple[str, ...]:
    """The flags of the build on this machine: CFLAGS, and -mpopcnt on an
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
    """Compile source, a _dfs.c, to the extension module target with
    cflags(), Python's include directory, then the extra flags.  Raises
    OSError when cc fails, as it does without Python's headers."""
    import subprocess
    import sysconfig

    include = sysconfig.get_paths()["include"]
    proc = subprocess.run(["cc", *cflags(), "-I", include, *extra, "-o", str(target), str(source)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise OSError(f"cc exited {proc.returncode}: {proc.stderr[-300:]!r}")


def _compile(target: Path) -> None:
    """Build SOURCE to target, or raise OSError; then remove this
    interpreter's other builds from target's directory, and the builds
    named _dfs-<hash>.so, before the suffix was added."""
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
    for suffix in (EXTENSION_SUFFIXES[0], ".so"):
        for old in target.parent.glob(f"_dfs-{'[0-9a-f]' * 8}{suffix}"):
            if old != target:
                old.unlink(missing_ok=True)


class Kernel(NamedTuple):
    """The compiled backend: solve(g, t0, t1, pins) with the arguments and
    the result of solver._solve, its one search; and, for the tests and
    tools/kernel_ab.py, plan(g) -> solver._Plan, to compare with
    solver._plan."""

    plan: Callable
    solve: Callable


# The most labels the kernel's solve takes: 2n + 64, the bits of its
# bitsets, must fit a C int.  Kernel.solve searches up to it, and raises
# SearchLimitError, naming it, when it finds no witness there and the call
# asks for more.
MAX_LABELS = (2**31 - 1 - 64) // 2

# What the kernel could not allocate, by its solve's return code
_LIMITS = {-2: "the plan of", -3: "its completion tables for"}


def _limit(code: int, p: int) -> SearchLimitError:
    return SearchLimitError(f"the search kernel could not allocate {_LIMITS[code]} {p} vertices")


def open_build(path: Path) -> Kernel:
    """The Kernel of the build of _dfs.c at path, imported as the module
    semdef._dfs, which is not entered in sys.modules.  Raises ImportError
    when the file does not load or defines no such module.  Its functions
    take the vertex count and Graph.edges as they are, and raise on any
    other edges."""
    loader = ExtensionFileLoader("semdef._dfs", str(path))
    module = loader.create_module(ModuleSpec(loader.name, loader, origin=loader.path))
    loader.exec_module(module)
    make, run = module.plan, module.solve

    def plan(g) -> _Plan:
        fields = make(g.vertex_count, g.edges)
        if fields is None:
            raise _limit(-2, g.vertex_count)
        return _Plan(*fields)

    def solve(g, t0: int, t1: int, pins: int):
        p = g.vertex_count
        top = min(t1, MAX_LABELS - p)
        t, labels, nodes = run(p, g.edges, min(t0, top + 1), top, pins)
        if t < -1:
            raise _limit(t, p)
        if t == -1 and top < t1:
            raise SearchLimitError(f"the search kernel takes at most MAX_LABELS = {MAX_LABELS} "
                                   f"labels and found no witness up to them, but {p + t1} "
                                   "were asked for")
        return (t, labels, nodes) if t >= 0 else (None, None, nodes)

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
        return open_build(path)
    except (OSError, ImportError):
        return None
