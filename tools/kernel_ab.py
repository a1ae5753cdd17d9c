"""Compare two builds of the compiled kernel call for call, in alternating pairs.

Both C sources must define PyInit__dfs, the init function of the
kernel's extension module; the tool exits 2, building nothing, when either
lacks it.  Each is compiled into a temporary directory with _kernel.build
and loaded with _kernel.open_build, side by side; the tool exits 2, naming
the source, when one does not build or load as that module.  The two sides
run in alternation, the one going first swapped every round, over two sets:

  calls   the bench's solve instances (bench/inputs.SOLVE_INSTANCES), each
          as one whole deficiency call, the unit the bench times: one
          Kernel.solve call per instance, from its counting bound to its cap,
          labels 1 and N pinned, plan and every filler count up to the first
          witness included; timed as one pass per round;
  long    four long searches, H_14 at t=1, H_18 at t=0, P_12+2K_1 at t=5
          and C_8+3K_1 at t=12, each one Kernel.solve call at that t alone,
          labels 1 and N pinned, timed on its own.

Plans are not timed apart: each call builds its own.  Per row it prints
the nodes, each build's median milliseconds with the quartiles, and the
rounds in which NEW was faster, and it says "within noise" when the two
medians differ by no more than OLD's quartile spread.  Every call must be
the same in both builds and in every round: the same t, witness and node
total.  With --cut, for a NEW that changes a cut by design, the node
counts may differ: the t and the witnesses must still match, and each row
prints NEW's nodes beside OLD's.  A row that differs says DIFFERS and shows
NEW's found flag and nodes next to OLD's (for a set, the calls with a
witness and the nodes summed), and the tool exits 1.  A row stops its
rounds once a run of one side takes more than 20 times the other side's
first run, so a build that changes a long search by design costs a few of
its runs, not all of them.

Run:  python tools/kernel_ab.py [--cut] OLD.c NEW.c
e.g.  git show HEAD:src/semdef/_dfs.c > /tmp/old.c
      python tools/kernel_ab.py /tmp/old.c src/semdef/_dfs.c
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402  (bench/inputs.py)
from semdef import _kernel  # noqa: E402
from semdef.bounds import counting_lower_bound  # noqa: E402
from semdef.graphs import FamilyDescriptor, make_family  # noqa: E402

INIT = "PyInit__dfs"  # the init function of the kernel's module, semdef._dfs
PINS = 2
SOLVE_ROUNDS = 400  # rounds of the calls, each one pass per build
LONG_ROUNDS = 10  # rounds of each long search
STOP_RATIO = 20  # a row stops once one side's run takes this many times the other's first
LONG = (
    ("H_14 t=1", FamilyDescriptor("wheel-minus-spoke", n=14), 1),
    ("H_18 t=0", FamilyDescriptor("wheel-minus-spoke", n=18), 0),
    ("P_12+2K_1 t=5", FamilyDescriptor("path-join", n=12, m=2), 5),
    ("C_8+3K_1 t=12", FamilyDescriptor("cycle-join", n=8, m=3), 12),
)


def side(source: Path, out: Path) -> _kernel.Kernel:
    """One build: source compiled to out and loaded; exits 2, naming the
    source, when it does not build or load as the kernel's module."""
    try:
        _kernel.build(source, out)
        return _kernel.open_build(out)
    except (OSError, ImportError) as exc:
        print(f"{source} does not build or load as the kernel's module: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def solve_calls() -> list:
    """(graph, counting bound, cap) per bench solve instance."""
    graphs = inputs.solve_graphs()
    return [(g, counting_lower_bound(g.vertex_count, g.q), cap)
            for name, *_, cap in inputs.SOLVE_INSTANCES for g in [graphs[name]]]


def call_run(kernel: _kernel.Kernel, calls: list):
    """() -> (seconds, results): kernel runs each (g, t0, t1) of calls as one
    Kernel.solve call, labels 1 and N pinned; a result is (t, labels per
    vertex, nodes), t and labels None when there is no witness."""
    def run():
        start = time.perf_counter()
        results = [kernel.solve(g, t0, t1, PINS) for g, t0, t1 in calls]
        return time.perf_counter() - start, results
    return run


def quartiles(ts: list) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ts."""
    return tuple(statistics.quantiles(ts, n=4)) if len(ts) > 1 else (ts[0],) * 3


def cells(ts: list) -> str:
    """Median milliseconds with the quartiles."""
    q1, med, q3 = quartiles(ts)
    return f"{med * 1e3:10.2f} [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"


def found_nodes(results: list) -> str:
    """The witnesses found and the nodes of call results, summed over a set."""
    found = sum(t is not None for t, *_ in results)
    nodes = sum(n for *_, n in results)
    return f"found {found if len(results) > 1 else bool(found)} nodes {nodes:,}"


def compare(label: str, runs, rounds: int, cut: bool = False) -> bool:
    """Run runs[0] (OLD) and runs[1] (NEW), each () -> (seconds, results), in
    alternation for up to rounds rounds and print one row; False when any
    result differs from the first one OLD gave (in a call's t and labels
    alone when cut is set) or from the first of its own side."""
    def key(results):
        return [(t, labels) for t, labels, _ in results] if cut else results

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
    nodes = sum(n for *_, n in first[0])
    row = (f"{label:14s} {nodes:12,d} {cells(times[0]):>30s} {cells(times[1]):>30s} "
           f"{wins:5d}/{len(pairs)}")
    (q1, old, q3), new = quartiles(times[0]), quartiles(times[1])[1]
    if abs(new - old) <= q3 - q1:
        row += "  within noise"
    if cut and first[1] is not None:
        row += f"  NEW nodes {sum(n for *_, n in first[1]):,}"
    if len(pairs) < rounds:
        row += f"  stopped: a run took over {STOP_RATIO}x the other side's first"
    if not same:
        row += "  DIFFERS"
        if first[1] is not None:
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
    lacking = [str(src) for src in (args.old, args.new) if INIT not in src.read_text()]
    if lacking:
        print(f"no {INIT} in {', '.join(lacking)}: both sources need it", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sides = [side(src, Path(tmp) / f"{name}.so") for name, src in
                 (("old", args.old), ("new", args.new))]
        print(f"{'searches':14s} {'nodes':>12s} {'OLD ms median [q1, q3]':>30s} "
              f"{'NEW ms median [q1, q3]':>30s} {'NEW faster':>10s}")
        calls = solve_calls()
        same = True
        for label, rows, rounds in (
                (f"calls ({len(calls)})", calls, SOLVE_ROUNDS),
                *((label, [(make_family(family), t, t)], LONG_ROUNDS)
                  for label, family, t in LONG)):
            same &= compare(label, [call_run(s, rows) for s in sides], rounds, cut=args.cut)
    if not same:
        print("results differ: a call's t, witness"
              + ("" if args.cut else " or node count"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
