"""Compare two builds of the compiled kernel search for search, in alternating pairs.

Both C sources are compiled into a temporary directory, as _kernel.build
compiles one with a plan builder and with _kernel.cflags() one without, and
loaded side by side.  Each side builds its plans with its own plan
builder: semdef_plan when its source has one, read back with
_kernel.CPlan.arrays as far as the layout in its source's comment goes,
else solver._plan, handed to its semdef_dfs as the Plan struct of seven
arrays that sources from before semdef_plan take.  The plans are compared
on the fields both sides build.  The two sides then run in alternation,
the one going first swapped every round, over three sets:

  plans   the plans of the bench's solve graphs (bench/inputs.SOLVE_INSTANCES),
          all built once per round;
  solve   the bench's solve searches: every solve instance at each filler
          count from its counting bound to its cap, labels 1 and N pinned,
          timed as one pass per round;
  calls   the bench's solve instances, each as one whole deficiency call
          (plan and every filler count up to the first witness), the unit
          the bench times: one semdef_solve call per instance, or, for a
          source without semdef_solve, its plan builder (or solver._plan)
          and one semdef_dfs call per filler count, looped here; timed as
          one pass per round;
  long    four long searches, H_14 at t=1, H_18 at t=0, P_12+2K_1 at t=5
          and C_8+3K_1 at t=12, labels 1 and N pinned, each timed on its
          own.

Per row it prints the nodes (for the plans, their number), each build's median milliseconds with the
quartiles, and the rounds in which NEW was faster.  Every plan and every
search must be the same in both builds and in every round: the same plan
fields, the same found flag, labels and node count, or, for a call, the
same deficiency, witness and node total.  With --cut, for a
NEW that changes a cut by design, the node counts may differ: the found
flag and the labels must still match, and each row prints NEW's nodes
beside OLD's.  A row that differs says DIFFERS and shows NEW's found flag
and nodes next to OLD's (for a set, the searches with a witness and the
nodes summed), and the tool exits 1.
A row stops its rounds once a run of one side takes more than 20 times the
other side's first run, so a build that changes a long search by design
costs a few of its runs, not all of them.  The solve and long times are
kernel searches alone: each side builds its plans once, before timing.

Run:  python tools/kernel_ab.py [--cut] OLD.c NEW.c
e.g.  git show HEAD:src/semdef/_dfs.c > /tmp/old.c
      python tools/kernel_ab.py /tmp/old.c src/semdef/_dfs.c
"""

from __future__ import annotations

import argparse
import ctypes
import re
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402  (bench/inputs.py)
from semdef import _kernel, solver  # noqa: E402
from semdef.bounds import counting_lower_bound  # noqa: E402
from semdef.graphs import FamilyDescriptor, make_family  # noqa: E402

PINS = 2
SOLVE_ROUNDS = 400  # rounds of the plans and the solve set, each one pass per build
LONG_ROUNDS = 10  # rounds of each long search
STOP_RATIO = 20  # a row stops once one side's run takes this many times the other's first
LONG = (
    ("H_14 t=1", FamilyDescriptor("wheel-minus-spoke", n=14), 1),
    ("H_18 t=0", FamilyDescriptor("wheel-minus-spoke", n=18), 0),
    ("P_12+2K_1 t=5", FamilyDescriptor("path-join", n=12, m=2), 5),
    ("C_8+3K_1 t=12", FamilyDescriptor("cycle-join", n=8, m=3), 12),
)


class OldPlan(ctypes.Structure):
    """The Plan struct semdef_dfs took before semdef_plan: p, then the seven
    arrays of solver._Plan's fields it had then, all but order."""

    _fields_ = [("p", ctypes.c_int),
                *((name, ctypes.POINTER(ctypes.c_int)) for name in
                  ("deg", "pstart", "prior", "orbit_prev", "inner", "ostart", "open"))]


def old_kernel(lib) -> _kernel.Kernel:
    """The Kernel of a build without semdef_plan: solver._plan, converted
    to an OldPlan, and its semdef_dfs."""
    fn = lib.semdef_dfs
    fn.argtypes = [ctypes.POINTER(OldPlan), ctypes.c_int, ctypes.c_int,
                   ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_longlong)]
    fn.restype = ctypes.c_int

    def plan(g):
        fields = solver._plan(g)
        arrays = (getattr(fields, name) for name, _ in OldPlan._fields_[1:])
        return fields, OldPlan(len(fields.deg), *((ctypes.c_int * len(a))(*a) for a in arrays))

    def dfs(planned, n_total: int, pins: int):
        fields, struct = planned
        labels = (ctypes.c_int * len(fields.deg))()
        nodes = ctypes.c_longlong()
        found = fn(struct, n_total, pins, labels, ctypes.byref(nodes))
        return (list(labels) if found > 0 else None), nodes.value

    return _kernel.Kernel(plan, dfs, None)  # Side.solve loops plan and dfs


def layout_size(text: str) -> int:
    """The number of solver._Plan fields in the plan buffer of a _dfs.c
    source with semdef_plan, as its layout comment lists them after p."""
    layout = re.search(r"_Plan's fields in order after p:(.*?);", text, re.S)[1]
    return len(re.findall(r"(?:^|,)\s*(\w+)", layout)) - 1


class Side:
    """One build: its plan builder, its search, and how many of the plan's
    fields it builds."""

    def __init__(self, source: Path, out: Path):
        text = source.read_text()
        new = "semdef_plan" in text
        if new:
            _kernel.build(source, out)
        else:
            subprocess.run(["cc", *_kernel.cflags(), "-o", str(out), str(source)], check=True)
        lib = ctypes.CDLL(str(out))
        self.one_call = "semdef_solve" in text
        if new and not self.one_call:  # bind declares a semdef_solve that solve() never calls
            lib = types.SimpleNamespace(semdef_plan=lib.semdef_plan, semdef_free=lib.semdef_free,
                                        semdef_dfs=lib.semdef_dfs,
                                        semdef_solve=types.SimpleNamespace())
        self.kernel = _kernel.bind(lib) if new else old_kernel(lib)
        self.plan, self.dfs = self.kernel[:2]
        self.size = layout_size(text) if new else len(solver._Plan._fields)
        self.shared = self.size  # the fields compared, set by main

    def solve(self, g, t0: int, t1: int):
        """deficiency's backend call on g over t0..t1, labels 1 and N
        pinned: (t, labels per vertex, nodes), t and labels None when none
        is found."""
        if self.one_call:
            return self.kernel.solve(g, t0, t1, PINS)
        planned, nodes = self.plan(g), 0
        order = planned.order if isinstance(planned, _kernel.CPlan) else planned[0].order
        for t in range(t0, t1 + 1):
            n_total = g.vertex_count + t
            at, spent = self.dfs(planned, n_total, min(PINS, n_total))
            nodes += spent
            if at is not None:
                return t, [lab for _, lab in sorted(zip(order, at))], nodes
        return None, None, nodes

    def fields(self, planned) -> list:
        """The first shared fields of a plan this side built."""
        if isinstance(planned, _kernel.CPlan):
            return planned.arrays(self.shared)
        return list(planned[0])[:self.shared]

    def cases(self, searches) -> list:
        """(plan, n_total) per (graph, t) of searches, one plan per graph."""
        plans: dict = {}
        return [(plans.setdefault(g, self.plan(g)), g.vertex_count + t) for g, t in searches]


def solve_graphs() -> list:
    graphs = inputs.solve_graphs()
    return [graphs[name] for name, *_ in inputs.SOLVE_INSTANCES]


def solve_calls() -> list:
    """(graph, counting bound, cap) per bench solve instance."""
    graphs = inputs.solve_graphs()
    return [(g, counting_lower_bound(g.vertex_count, g.q), cap)
            for name, *_, cap in inputs.SOLVE_INSTANCES for g in [graphs[name]]]


def solve_searches() -> list:
    return [(g, t) for g, t0, cap in solve_calls() for t in range(t0, cap + 1)]


def plan_run(side: Side, graphs: list):
    """() -> (seconds, fields): side builds the plans of graphs, timed, and
    reads them back, untimed."""
    def run():
        start = time.perf_counter()
        plans = [side.plan(g) for g in graphs]
        return time.perf_counter() - start, [side.fields(plan) for plan in plans]
    return run


def search_run(side: Side, searches: list):
    """() -> (seconds, results): side searches each of searches on plans
    built once, before any timing."""
    cases = side.cases(searches)

    def run():
        start = time.perf_counter()
        results = [side.dfs(plan, n_total, PINS) for plan, n_total in cases]
        return time.perf_counter() - start, results
    return run


def call_run(side: Side, calls: list):
    """() -> (seconds, results): side runs each of calls as one deficiency
    call, plan included; a result is ((t, labels), nodes), or (None, nodes)
    with no witness."""
    def run():
        start = time.perf_counter()
        results = [side.solve(g, t0, cap) for g, t0, cap in calls]
        return time.perf_counter() - start, [
            (None if t is None else (t, labels), nodes) for t, labels, nodes in results]
    return run


def cells(ts: list) -> str:
    """Median milliseconds with the quartiles."""
    q1, med, q3 = statistics.quantiles(ts, n=4) if len(ts) > 1 else ts * 3
    return f"{med * 1e3:10.2f} [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"


def found_nodes(results: list) -> str:
    """The found flag and the nodes of search results, summed over a set."""
    found = sum(labels is not None for labels, _ in results)
    nodes = sum(n for _, n in results)
    return f"found {found if len(results) > 1 else bool(found)} nodes {nodes:,}"


def compare(label: str, runs, rounds: int, searches: bool = True, cut: bool = False) -> bool:
    """Run runs[0] (OLD) and runs[1] (NEW), each () -> (seconds, results), in
    alternation for up to rounds rounds and print one row; False when any
    result differs from the first one OLD gave (in a search's found flag
    and labels alone when cut is set) or from the first of its own side."""
    def key(results):
        return [labels for labels, _ in results] if cut and searches else results

    times: tuple[list, list] = ([], [])
    first: list = [None, None]
    same = True
    for r in range(rounds):
        for which in ((0, 1) if r % 2 == 0 else (1, 0)):
            seconds, results = runs[which]()
            times[which].append(seconds)
            first[which] = first[which] or results
            same &= key(results) == key(first[0] or results) and results == first[which]
            other = times[1 - which]
            if other and seconds > STOP_RATIO * other[0]:
                break
        else:
            continue
        break
    pairs = list(zip(*times))
    wins = sum(new < old for old, new in pairs)
    nodes = sum(n for _, n in first[0]) if searches else len(first[0])
    row = (f"{label:14s} {nodes:12,d} {cells(times[0]):>30s} {cells(times[1]):>30s} "
           f"{wins:5d}/{len(pairs)}")
    if cut and searches and first[1] is not None:
        row += f"  NEW nodes {sum(n for _, n in first[1]):,}"
    if len(pairs) < rounds:
        row += f"  stopped: a run took over {STOP_RATIO}x the other side's first"
    if not same:
        row += "  DIFFERS"
        if searches and first[1] is not None:
            row += f": OLD {found_nodes(first[0])}, NEW {found_nodes(first[1])}"
    print(row)
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path, help="the baseline _dfs.c")
    ap.add_argument("new", type=Path, help="the changed _dfs.c")
    ap.add_argument("--cut", action="store_true",
                    help="NEW changes a cut: require the same found flags and labels, "
                         "and print both node counts")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Side(src, Path(tmp) / f"{name}.so") for name, src in
                 (("old", args.old), ("new", args.new))]
        for side in sides:
            side.shared = min(s.size for s in sides)
        print(f"{'searches':14s} {'nodes':>12s} {'OLD ms median [q1, q3]':>30s} "
              f"{'NEW ms median [q1, q3]':>30s} {'NEW faster':>10s}")
        graphs = solve_graphs()
        same = compare(f"plans ({len(graphs)})", [plan_run(s, graphs) for s in sides],
                       SOLVE_ROUNDS, searches=False)
        calls = solve_calls()
        same &= compare(f"calls ({len(calls)})", [call_run(s, calls) for s in sides],
                        SOLVE_ROUNDS, cut=args.cut)
        solve = solve_searches()
        for label, searches, rounds in (
                (f"solve ({len(solve)})", solve, SOLVE_ROUNDS),
                *((label, [(make_family(family), t)], LONG_ROUNDS) for label, family, t in LONG)):
            same &= compare(label, [search_run(s, searches) for s in sides], rounds, cut=args.cut)
    if not same:
        print("results differ: a plan, or a search's or call's found flag, witness"
              + ("" if args.cut else " or node count"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
