"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's verifier and solver internals:
consecutiveness is tested by sorting and stepping, the least labeling by
trying every injection of {1..p+t} in the solver's documented order,
abandoning a partial labeling only where no completion can work, and the
stabilizer orbits by enumerating every permutation of the vertices.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from semdef.graphs import Graph


def sums_are_consecutive(sums) -> bool:
    if not sums:
        return True
    ordered = sorted(sums)
    return all(b - a == 1 for a, b in zip(ordered, ordered[1:]))


def labeling_is_sem_bruteforce(g: Graph, labels, total_labels: int) -> bool:
    """Direct check of one labeling: injective into range, sums consecutive."""
    if len(labels) != g.vertex_count:
        return False
    if len(set(labels)) != len(labels):
        return False
    if any(not (1 <= lab <= total_labels) for lab in labels):
        return False
    return sums_are_consecutive([labels[u] + labels[v] for u, v in g.edges])


def least_sem_labeling(g: Graph, t: int):
    """The lexicographically least SEM labeling of g U tK_1 along the
    solver's assignment order, as labels per vertex, or None if none exists.

    Vertices take labels in descending-degree order, ties by index, each
    trying 1..p+t in ascending order, so the first full labeling found is the
    least one along that order.  Once both ends of an edge are labelled its
    sum is fixed, so a partial labeling is dropped as soon as two labelled
    edges share a sum or the labelled sums span more than q - 1: no
    completion can repair either.  Nothing else is cut, and full labelings
    are tested directly.
    """
    p, q = g.vertex_count, g.q
    n_total = p + t
    deg = [0] * p
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    order = sorted(range(p), key=lambda v: (-deg[v], v))
    rank = {v: i for i, v in enumerate(order)}
    closing = [[] for _ in range(p)]  # earlier-labelled ends of each vertex's edges
    for u, v in g.edges:
        early, late = sorted((u, v), key=rank.__getitem__)
        closing[late].append(early)
    labels = [0] * p
    used = [False] * (n_total + 1)

    def extend(i: int, sums: set) -> bool:
        if i == p:
            return sums_are_consecutive([labels[u] + labels[v] for u, v in g.edges])
        v = order[i]
        for lab in range(1, n_total + 1):
            if used[lab]:
                continue
            new = {lab + labels[j] for j in closing[v]}
            placed = sums | new
            if new and (len(placed) < len(sums) + len(new) or max(placed) - min(placed) > q - 1):
                continue
            labels[v], used[lab] = lab, True
            if extend(i + 1, placed):
                return True
            used[lab] = False
        return False

    return tuple(labels) if extend(0, set()) else None


def orbit_predecessors(g: Graph, order) -> list[int]:
    """For each position i of order, the greatest k < i such that an
    automorphism of g fixing order[0..k-1] maps order[k] to order[i], or -1.

    Every permutation of the p vertices is tried, so keep p <= 7."""
    p = g.vertex_count
    edges = set(g.edges)
    autos = [
        s for s in permutations(range(p))
        if all((min(s[u], s[v]), max(s[u], s[v])) in edges for u, v in g.edges)
    ]
    out = []
    for i, v in enumerate(order):
        ks = [
            k for k in range(i)
            if any(s[order[k]] == v and all(s[w] == w for w in order[:k]) for s in autos)
        ]
        out.append(max(ks, default=-1))
    return out


def all_injections(p: int, n_total: int):
    for chosen in combinations(range(1, n_total + 1), p):
        yield from permutations(chosen)


def random_graph(rng: random.Random, p: int) -> Graph:
    density = rng.choice((0.2, 0.4, 0.6))
    edges = [
        (u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < density
    ]
    return Graph(p, edges)
