"""Reference search for the expected `solve` answers, independent of semdef.

    python3 bench/reference.py            # print the table it would write
    python3 bench/reference.py --write    # rebuild bench/expected_solve.json

For each solve instance and each filler count t from the counting bound up
to the cap, it searches every injective labeling of the vertices into
1..p+t for one whose sorted edge sums are consecutive.  It fixes the
smallest edge sum s in an outer loop, so every edge sum must fall in the
window s..s+q-1 and each window value is hit exactly once; vertices are
labelled in breadth-first order from a vertex of largest degree.  This is
a different algorithm from semdef.solver (which orders by degree, prunes
on the span and a weighted-sum interval, and uses complement symmetry)
and slower: the whole table takes about half a minute.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from check import counting_bound, family_edges, sem_error
from inputs import SOLVE_INSTANCES

HERE = Path(__file__).resolve().parent
TABLE = HERE / "expected_solve.json"


def _bfs_order(p: int, edges) -> list[int]:
    adj = [[] for _ in range(p)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order: list[int] = []
    seen = [False] * p
    while len(order) < p:
        root = max((v for v in range(p) if not seen[v]), key=lambda v: len(adj[v]))
        seen[root] = True
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(adj[v], key=lambda w: -len(adj[w])):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def find_labeling(p: int, edges, total: int) -> list[int] | None:
    """A SEM labeling of (p, edges) into 1..total, or None after exhausting all."""
    q = len(edges)
    if q == 0:
        return list(range(1, p + 1))
    order = _bfs_order(p, edges)
    rank = {v: i for i, v in enumerate(order)}
    back = [[] for _ in range(p)]  # earlier-ranked neighbours of order[i]
    for u, v in edges:
        a, b = sorted((rank[u], rank[v]))
        back[b].append(a)
    lab = [0] * p
    used = [False] * (total + 2)

    for s in range(3, 2 * total - q + 1):
        hit = [False] * (q + 1)

        def place(i: int) -> bool:
            if i == p:
                return True
            for x in range(1, total + 1):
                if used[x]:
                    continue
                slots = []
                for j in back[i]:
                    k = x + lab[j] - s
                    if k < 0 or k >= q or hit[k] or k in slots:
                        break
                    slots.append(k)
                else:
                    used[x] = True
                    lab[i] = x
                    for k in slots:
                        hit[k] = True
                    if place(i + 1):
                        return True
                    for k in slots:
                        hit[k] = False
                    used[x] = False
            return False

        if place(0):
            out = [0] * p
            for i, v in enumerate(order):
                out[v] = lab[i]
            return out
    return None


def solve_row(name: str, family: str, n: int, m: int | None, cap: int) -> dict:
    p, edges = family_edges(family, n, m)
    start = time.perf_counter()
    answer = None
    witness = None
    for t in range(counting_bound(p, len(edges)), cap + 1):
        witness = find_labeling(p, edges, p + t)
        if witness is not None:
            if sem_error(p, edges, witness, p + t) is not None:
                raise RuntimeError(f"{name}: reference witness fails its own check")
            answer = t
            break
    print(f"{name}: deficiency {answer} (cap {cap}) in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return {"name": name, "family": family, "n": n, "m": m, "cap": cap,
            "p": p, "q": len(edges), "deficiency": answer, "witness": witness}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"write {TABLE.name}")
    args = ap.parse_args()
    rows = [solve_row(*inst) for inst in SOLVE_INSTANCES]
    text = json.dumps({"instances": rows}, indent=1) + "\n"
    if args.write:
        TABLE.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
