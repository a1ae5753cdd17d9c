"""Answer checks that share no code with semdef.

Everything here works on plain integers and lists: edge lists are built
from the family definitions directly, a labeling is a list of ints, and
the super edge-magic test is the consecutive-edge-sums characterization
(Figueroa-Centeno, Ichishima and Muntaner-Batle, Discrete Math. 231, 2001)
written out by sorting.  Nothing here imports semdef.
"""

from __future__ import annotations


def star_join_edges(n: int, m: int) -> tuple[int, list[tuple[int, int]]]:
    """K_{1,n} + mK_1: centre 0, leaves 1..n, added vertices n+1..n+m."""
    p = n + 1 + m
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(u, n + 1 + j) for u in range(n + 1) for j in range(m)]
    return p, sorted(edges)


def path_join_edges(n: int, m: int) -> tuple[int, list[tuple[int, int]]]:
    """P_n + mK_1: path 0..n-1, added vertices n..n+m-1."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(u, n + j) for u in range(n) for j in range(m)]
    return n + m, sorted(edges)


def cycle_join_edges(n: int, m: int) -> tuple[int, list[tuple[int, int]]]:
    """C_n + mK_1: cycle 0..n-1, added vertices n..n+m-1."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    edges += [(u, n + j) for u in range(n) for j in range(m)]
    return n + m, sorted(edges)


def wheel_minus_spoke_edges(n: int, missing: int = 1) -> tuple[int, list[tuple[int, int]]]:
    """Wheel on rim 1..n with hub 0, without the spoke 0-missing."""
    edges = [(0, i) for i in range(1, n + 1) if i != missing]
    edges += [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return n + 1, sorted(edges)


FAMILY_EDGES = {
    "star-join": star_join_edges,
    "path-join": path_join_edges,
    "cycle-join": cycle_join_edges,
}


def family_edges(family: str, n: int, m: int | None) -> tuple[int, list[tuple[int, int]]]:
    """The graph semdef builds for a family; the H_n construction for n >= 8,
    n % 4 == 0 labels the copy whose missing spoke is at x_{n/2}."""
    if family == "wheel-minus-spoke":
        return wheel_minus_spoke_edges(n, n // 2 if n >= 8 and n % 4 == 0 else 1)
    return FAMILY_EDGES[family](n, m)


def consecutive_sums_error(p: int, edges, labels, total: int) -> str | None:
    """None when labels are a SEM labeling of (p, edges) into 1..total.

    Labels must be injective into 1..total; the edge sums, sorted, must be
    distinct and step by exactly one.
    """
    if len(labels) != p:
        return f"{len(labels)} labels for {p} vertices"
    if any(not (1 <= x <= total) for x in labels):
        return f"a label lies outside 1..{total}"
    if len(set(labels)) != p:
        return "labels are not injective"
    sums = sorted(labels[u] + labels[v] for u, v in edges)
    for a, b in zip(sums, sums[1:]):
        if b != a + 1:
            return f"sorted edge sums step from {a} to {b}"
    return None


def sem_error(p: int, edges, labels, total: int) -> str | None:
    """Check a labeling and its complement total+1-f; None when both pass."""
    err = consecutive_sums_error(p, edges, labels, total)
    if err is not None:
        return err
    err = consecutive_sums_error(p, edges, [total + 1 - x for x in labels], total)
    if err is not None:
        return f"complement labeling fails: {err}"
    return None


def counting_bound(p: int, q: int) -> int:
    """Least t >= 0 with q <= 2(p+t) - 3 for a graph with an edge: ceil((q+3)/2) - p."""
    if q == 0:
        return 0
    return max(0, -(-(q + 3) // 2) - p)


def closed_form_fillers(family: str, n: int, m: int | None) -> int:
    """The paper's filler counts for the constructed families."""
    if family == "wheel-minus-spoke":
        if n <= 4:
            return 0
        if n <= 7:
            return 1
        if n % 2 == 1:
            return (n - 3) // 2
        if n % 4 == 0:
            return n // 2
        raise ValueError(f"no construction for H_{n}")
    if family == "path-join":
        if n <= 2:
            return 0
        if n == 4:
            return m - 1
        if n == 6:
            return 2 * (m - 1)
        return (n - 1) * (m - 1) - 1
    if family == "star-join":
        return 0 if m == 1 else n * (m - 1) - 1
    if family == "cycle-join":
        if n % 2 == 0:
            raise ValueError(f"no construction for C_{n} joins")
        return m * n - (n + m) + 1
    raise ValueError(f"unknown family {family!r}")
