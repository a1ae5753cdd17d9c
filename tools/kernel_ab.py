"""Compare two builds of the DFS kernel search for search, in alternating pairs.

Both C sources are compiled with _kernel.CFLAGS into a temporary directory
and loaded side by side, each taking the plan as a _kernel.Plan struct.
They then run in alternation, the one going first swapped every round, over
two sets of searches:

  solve   the bench's solve searches: every instance of
          bench/inputs.SOLVE_INSTANCES at each filler count from its
          counting bound to its cap, labels 1 and N pinned, timed as one
          pass per round;
  long    three long searches, H_14 at t=1, H_18 at t=0 and P_12+2K_1 at
          t=5, labels 1 and N pinned, each timed on its own.

Per row it prints the nodes, each build's median milliseconds with the
quartiles, and the rounds in which NEW was faster.  Every search must give
the same found flag, labels and node count in both builds and in every
round; the tool exits 1 if any differs.  Times are kernel calls alone: each
plan is built and converted to a struct once, before timing.

Run:  python tools/kernel_ab.py OLD.c NEW.c
e.g.  git show HEAD:src/semdef/_dfs.c > /tmp/old.c
      python tools/kernel_ab.py /tmp/old.c src/semdef/_dfs.c
"""

from __future__ import annotations

import argparse
import ctypes
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402  (bench/inputs.py)
from semdef import _kernel, solver  # noqa: E402
from semdef.bounds import counting_lower_bound  # noqa: E402
from semdef.graphs import FamilyDescriptor, make_family  # noqa: E402

PINS = 2
SOLVE_ROUNDS = 400  # rounds of the solve set, each one pass per build
LONG_ROUNDS = 10  # rounds of each long search
LONG = (
    ("H_14 t=1", FamilyDescriptor("wheel-minus-spoke", n=14), 1),
    ("H_18 t=0", FamilyDescriptor("wheel-minus-spoke", n=18), 0),
    ("P_12+2K_1 t=5", FamilyDescriptor("path-join", n=12, m=2), 5),
)


def build(source: Path, out: Path):
    """semdef_dfs of source compiled to out, with the argtypes _kernel.load sets."""
    subprocess.run(["cc", *_kernel.CFLAGS, "-o", str(out), str(source)], check=True)
    fn = ctypes.CDLL(str(out)).semdef_dfs
    fn.argtypes = [ctypes.POINTER(_kernel.Plan), ctypes.c_int, ctypes.c_int,
                   ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_longlong)]
    fn.restype = ctypes.c_int
    return fn


def search(fn, case) -> tuple:
    """(found, labels, nodes) of one kernel call on case = (struct, p, n_total)."""
    struct, p, n_total = case
    labels = (ctypes.c_int * p)()
    nodes = ctypes.c_longlong()
    found = fn(struct, n_total, PINS, labels, ctypes.byref(nodes))
    return found, list(labels) if found > 0 else None, nodes.value


def case(g, t) -> tuple:
    return _kernel.plan_struct(solver._plan(g)), g.vertex_count, g.vertex_count + t


def solve_cases() -> list:
    graphs = inputs.solve_graphs()
    return [case(g, t)
            for name, *_, cap in inputs.SOLVE_INSTANCES
            for g in [graphs[name]]
            for t in range(counting_lower_bound(g.vertex_count, g.q), cap + 1)]


def timed(fn, cases) -> tuple[float, list]:
    start = time.perf_counter()
    results = [search(fn, c) for c in cases]
    return time.perf_counter() - start, results


def compare(label: str, fns, cases, rounds: int) -> bool:
    """Run cases under both builds for rounds rounds and print one row;
    False when any result differs from the first one OLD gave."""
    times = ([], [])
    first = None
    same = True
    for r in range(rounds):
        for which in ((0, 1) if r % 2 == 0 else (1, 0)):
            seconds, results = timed(fns[which], cases)
            times[which].append(seconds)
            first = first or results
            if results != first:
                same = False
    nodes = sum(result[2] for result in first)
    wins = sum(new < old for old, new in zip(*times))
    cells = []
    for ts in times:
        q1, med, q3 = statistics.quantiles(ts, n=4)
        cells.append(f"{med * 1e3:10.2f} [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]")
    print(f"{label:14s} {nodes:12,d} {cells[0]:>30s} {cells[1]:>30s} {wins:5d}/{rounds}"
          + ("" if same else "  DIFFERS"))
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path, help="the baseline _dfs.c")
    ap.add_argument("new", type=Path, help="the changed _dfs.c")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fns = [build(src, Path(tmp) / f"{name}.so") for name, src in
               (("old", args.old), ("new", args.new))]
        print(f"{'searches':14s} {'nodes':>12s} {'OLD ms median [q1, q3]':>30s} "
              f"{'NEW ms median [q1, q3]':>30s} {'NEW faster':>10s}")
        cases = solve_cases()
        same = compare(f"solve ({len(cases)})", fns, cases, SOLVE_ROUNDS)
        for label, family, t in LONG:
            same &= compare(label, fns, [case(make_family(family), t)], LONG_ROUNDS)
    if not same:
        print("results differ: a search gave another found flag, witness or node count")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
