"""The solver's Python backend: the reference the compiled kernel is
checked against, node for node.

_solve(g, t0, t1, pins) runs the searches of one find_sem or deficiency
call: _plan builds g's search plan, a solver._Plan, once, with the orbit
links of orbit_prev, and _run_search searches it at each filler count with
the cuts the solver docstring states, _differences_fit and _spread_reaches
making the difference cut.  This module is the Python twin of the one
translation unit _dfs.c, whose semdef_plan ports _plan and orbit_prev and
whose semdef_solve ports _solve and _run_search.  solver._search imports it
only when _kernel.load() returns None, so neither `import semdef` nor a
process whose searches the kernel runs compiles it.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from operator import mul
from typing import Iterator

from .graphs import Graph
from .labeling import weighted_sum_required
from .solver import _Plan


def _plan(g: Graph) -> _Plan:
    """The search plan of g, which _solve builds once per find_sem or
    deficiency call when the kernel does not load; _dfs.c's semdef_plan
    builds the same plan otherwise."""
    p = g.vertex_count
    deg = g.degrees()
    order = sorted(range(p), key=lambda v: (-deg[v], v))
    pos = {v: i for i, v in enumerate(order)}
    prior_at: list[list[int]] = [[] for _ in range(p)]
    adj = [0] * p  # neighbours per position, as a bitmask over positions
    first_end = [0] * p  # edges by the position of their earlier endpoint
    last_nbr = [-1] * p  # latest position of a neighbour, per position
    for u, v in g.edges:
        iu, iv = pos[u], pos[v]
        if iu > iv:
            iu, iv = iv, iu
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
        prior_at[iv].append(iu)
        first_end[iu] += 1
        last_nbr[iu] = max(last_nbr[iu], iv)
    ostart, open_, carried = [0], [], []
    for i in range(p):  # open at i: those of i - 1, and i - 1, with a neighbour >= i
        carried = [j for j in carried if last_nbr[j] >= i]
        open_ += carried
        ostart.append(len(open_))
        carried.append(i)
    # a common neighbour v > b of positions a < b has both in its prior list,
    # so the pairs of the prior lists take in every pair with one
    common_at: list[list[int]] = [[] for _ in range(p)]
    for a, b in sorted({ab for js in prior_at for ab in combinations(sorted(js), 2)}):
        both = adj[a] & adj[b]
        i, c = b + 1, (both >> (b + 1)).bit_count()
        while c >= 2:
            common_at[i] += (a, b, c)
            c -= both >> i & 1
            i += 1
    return _Plan(
        order,
        [deg[v] for v in order],
        [0, *accumulate(map(len, prior_at))],
        [j for js in prior_at for j in js],
        orbit_prev(adj),
        list(accumulate(reversed(first_end)))[::-1],
        ostart,
        open_,
        [0, *accumulate(map(len, common_at))],
        [x for xs in common_at for x in xs],
    )


def _differences_fit(common: list[int], labels_at: list[int], free: int, seen: int) -> bool:
    """The difference cut on entering a position whose triples (a, b, c) of
    the plan's common list are given, with the free labels and the realized
    sums as bitsets (bit x for x): whether, for each, c free labels x with
    x + f(a) and x + f(b) unrealized can be found, no two of which differ by
    d = |f(a) - f(b)|.  The c unassigned common neighbours of a and b need
    such labels: x + f(a) = y + f(b) would repeat a sum."""
    for k in range(0, len(common), 3):
        a, b, c = common[k:k + 3]
        fa, fb = labels_at[a], labels_at[b]
        if not _spread_reaches(free & ~(seen >> fa) & ~(seen >> fb), abs(fa - fb), c):
            return False
    return True


def _spread_reaches(m: int, d: int, c: int) -> bool:
    """Whether the set m (bit x for x) holds c members no two of which
    differ by d > 0.  The most it holds takes ceil(L / 2) of each maximal
    run x, x + d, ..., x + (L - 1)d inside m, its 1st, 3rd, ... members, so
    it lies in ceil(|m| / 2)..|m|; between, each round takes the runs' first
    members, counts them and drops them and their successors."""
    size = m.bit_count()
    if size < c or size >= 2 * c - 1:
        return size >= c
    got = 0
    while m and got < c:
        starts = m & ~(m << d)
        got += starts.bit_count()
        m &= ~(starts | starts << d)
    return got >= c


def _run_search(plan: _Plan, n_total: int, pins: int) -> tuple[list[int] | None, int]:
    """Core DFS over plan with labels 1..n_total: a witness uses the first
    `pins` of the labels 1 and n_total.  The graph's q edges are the plan's
    pstart[-1], and position 0 takes the labels 1..ceil(n_total / 2), the
    complement cut.  Returns (labels per assignment position, nodes) or
    (None, nodes); nodes counts label placements attempted.  The search
    keeps one generator per entered position on a stack of its own, so the
    graph's size sets no depth limit.
    """
    _, deg, pstart, prior, orbit_prev, inner, ostart, open_, cstart, common = plan
    p, q, ntop = len(deg), pstart[-1], (n_total + 1) // 2
    target_base = weighted_sum_required(q, 0)
    max_start = 2 * n_total - q  # largest possible min edge sum

    labels_at = [0] * p
    used = [False] * (n_total + 1)
    sum_seen = bytearray(2 * n_total + 1)
    free, seen = (1 << n_total + 1) - 2, 0  # used and sum_seen as bitsets
    pinned = [1, n_total][:pins]
    priors = [prior[pstart[j]:pstart[j + 1]] for j in range(p)]
    nodes = 0

    def window(lo: int, hi: int) -> tuple[int, int]:
        """The least and greatest starting sum s of a window s..s+q-1 that
        still holds every realized sum (lo..hi; none when hi < 0)."""
        if hi < 0:
            return 3, max_start
        return max(3, hi - (q - 1)), min(lo, max_start)

    def realizable(idx: int, x: int) -> bool:
        """Whether an edge still to be labelled can take the sum x: a free
        label x - f(j) at an unassigned neighbour of an open position j, or
        two distinct free labels on an edge between unassigned vertices."""
        for j in open_[ostart[idx]:ostart[idx + 1]]:
            b = x - labels_at[j]
            if 1 <= b <= n_total and not used[b]:
                return True
        if inner[idx]:
            for a in range(max(1, x - n_total), (x + 1) // 2):
                if not used[a] and not used[x - a]:
                    return True
        return False

    def place(idx: int, j: int, x: int, lo: int, hi: int) -> tuple[int, int] | None:
        """The span lo..hi of the realized sums once the unassigned position
        j takes the free label x, on entering position idx; None when it
        cannot take it: a sum with an assigned neighbour repeats a realized
        sum or the span passes q-1, x is 1 and j has an orbit predecessor,
        or j is 0 and x is above ntop.  The new sums pair x with distinct
        placed labels, so they are distinct from each other."""
        if (x == 1 and orbit_prev[j] >= 0) or (j == 0 and x > ntop):
            return None
        for k in priors[j]:
            if k < idx:
                sm = x + labels_at[k]
                if sum_seen[sm]:
                    return None
                if sm < lo:
                    lo = sm
                if sm > hi:
                    hi = sm
        return (lo, hi) if hi < 0 or hi - lo <= q - 1 else None

    def pins_supported(idx: int, lo: int, hi: int) -> bool:
        """Whether every pinned label still free has an unassigned position
        that can take it, and there are as many unassigned positions as
        free pinned labels."""
        free = [x for x in pinned if not used[x]]
        return len(free) <= p - idx and all(
            any(place(idx, j, x, lo, hi) for j in range(idx, p)) for x in free)

    def completion(idx: int, lab: int) -> tuple[int, int]:
        """The least and greatest degree-weighted label sum of positions
        idx.. over the free labels other than lab; the degrees are already
        descending.  A helper, so that no suspended frame of children keeps
        these lists alive."""
        avail = [a for a in range(1, n_total + 1) if not used[a] and a != lab]
        rem = deg[idx:]
        return sum(map(mul, rem, avail)), sum(map(mul, rem, reversed(avail)))

    def children(idx: int, lo: int, hi: int, wsum: int) -> Iterator[tuple[int, int, int]]:
        """Yields (lo, hi, wsum) after each label placed at position idx,
        and undoes it when resumed; past the last position, yields once."""
        nonlocal nodes, free, seen
        if idx == p:
            if pins_supported(idx, lo, hi):
                yield lo, hi, wsum
            return
        if not _differences_fit(common[cstart[idx]:cstart[idx + 1]], labels_at, free, seen):
            return
        if idx > 0:
            # window-support cut: the sums s_hi..s_lo+q-1 lie in every window
            # still possible, so each is realized or still realizable
            s_lo, s_hi = window(lo, hi)
            for x in range(s_hi, s_lo + q):
                if not sum_seen[x] and not realizable(idx, x):
                    return
        if not pins_supported(idx, lo, hi):
            return
        # orbit rule: above the label of the orbit predecessor (position 0
        # has none)
        tp = orbit_prev[idx]
        for lab in range(labels_at[tp] + 1 if tp >= 0 else 1, (ntop if idx == 0 else n_total) + 1):
            if used[lab]:
                continue
            nodes += 1
            span = place(idx, idx, lab, lo, hi)
            if span is None:
                continue
            wsum2 = wsum + deg[idx] * lab
            if q > 0 and idx + 1 < p:
                # completion interval for the degree-weighted label sum
                minc, maxc = completion(idx + 1, lab)
                s_lo, s_hi = window(*span)
                if (
                    wsum2 + minc > q * s_hi + target_base
                    or wsum2 + maxc < q * s_lo + target_base
                ):
                    continue
            labels_at[idx] = lab
            used[lab] = True
            sums = 0
            for j in priors[idx]:
                sum_seen[lab + labels_at[j]] = 1
                sums |= 1 << lab + labels_at[j]
            free ^= 1 << lab
            seen ^= sums
            yield *span, wsum2
            free ^= 1 << lab
            seen ^= sums
            for j in priors[idx]:
                sum_seen[lab + labels_at[j]] = 0
            used[lab] = False

    stack = [children(0, 10 * n_total, -1, 0)]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif len(stack) > p:
            return list(labels_at), nodes
        else:
            stack.append(children(len(stack), *state))
    return None, nodes


def _solve(g: Graph, t0: int, t1: int, pins: int) -> tuple[int | None, list[int] | None, int]:
    """The Python backend of one find_sem or deficiency call, and the
    reference of _kernel.Kernel.solve: g's plan, built once, searched at
    t = t0..t1 up to the first witness, with the first min(pins, p + t) of
    the labels 1 and p + t pinned.  Returns (t, labels per vertex, nodes) or
    (None, None, nodes), nodes summed over every t searched."""
    plan, nodes = _plan(g), 0
    for t in range(t0, t1 + 1):
        n_total = g.vertex_count + t
        at, spent = _run_search(plan, n_total, min(pins, n_total))
        nodes += spent
        if at is not None:
            labels = [0] * g.vertex_count
            for v, lab in zip(plan.order, at):
                labels[v] = lab
            return t, labels, nodes
    return None, None, nodes


# ---------------------------------------------------------------------------
# Orbit links of the graph's automorphisms, for the symmetry cut: for each
# position i of the search order, the position whose label position i must
# exceed (see the solver docstring)
# ---------------------------------------------------------------------------

def orbit_prev(adj: list[int]) -> list[int]:
    """For the graph with neighbour bitmasks adj over positions 0..p-1, the
    greatest k < i for each position i such that an automorphism fixing
    positions 0..k-1 maps k to i, or -1.

    A stabilizer chain, built from the last position up (Schreier-Sims with
    exact orbits, as in Puget, CP 2003): the automorphisms found so far that
    fix 0..k-1 generate a subgroup of G_k, the pointwise stabilizer of
    0..k-1, and a union-find over positions holds its orbits.  For each
    candidate u outside the orbit of k, one search for an automorphism in
    G_k taking k to u either finds one, which merges orbits, or proves that
    none of u's orbit is in k's.  G_k is generated by G_{k+1} and one such
    automorphism per point of k's orbit, so once no candidate is left the
    union-find holds the orbits of G_k exactly.  The transposition of two
    twins (equal open neighbourhoods N(v) or equal closed ones N[v]) is an
    automorphism in G_k for the earlier twin's position k, and is seeded
    without a search.  No N(u) equals an N[w] (w would be in N(u), so u in
    N(w) = N(u)), so one table keyed by both finds both kinds of twin."""
    p = len(adj)
    deg = [a.bit_count() for a in adj]
    root = list(range(p))
    members = [1 << i for i in range(p)]  # the orbit of each root

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    def union(i: int, j: int) -> None:
        i, j = find(i), find(j)
        if i != j:
            root[j] = i
            members[i] |= members[j]

    twins: list[list[int]] = [[] for _ in range(p)]  # later twins per position
    last: dict[int, int] = {}
    for i, a in enumerate(adj):
        j = last.get(a, last.get(a | 1 << i, -1))
        if j >= 0:
            twins[j].append(i)
        last[a] = last[a | 1 << i] = i

    orbit_prev = [-1] * p
    unset = (1 << p) - 1  # positions whose orbit_prev is still unknown
    same_deg = 0  # the positions after k with k's degree: a run of the order
    for k in range(p - 1, -1, -1):
        for i in twins[k]:
            union(k, i)
        same_deg = (same_deg | 1 << (k + 1)) if k + 1 < p and deg[k + 1] == deg[k] else 0
        # an automorphism fixing 0..k-1 keeps each position's degree and its
        # neighbours among them
        fixed = (1 << k) - 1
        todo = 0
        rest = same_deg & ~members[find(k)]
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & fixed == adj[k] & fixed:
                todo |= low
            rest ^= low
        if todo:
            # cell[x - k]: the positions >= k that position x can map to
            cells: dict[tuple[int, int], int] = {}
            keys = [(deg[x], adj[x] & fixed) for x in range(k, p)]
            for x, key in enumerate(keys, k):
                cells[key] = cells.get(key, 0) | 1 << x
            cell = [cells[key] for key in keys]
        while todo:
            u = (todo & -todo).bit_length() - 1
            sigma = _automorphism(adj, k, u, cell)
            if sigma is not None:
                for x, y in enumerate(sigma, k):
                    union(x, y)
            todo &= ~(members[find(u)] | members[find(k)])
        found = members[find(k)] & unset & ~((2 << k) - 1)
        unset &= ~found
        while found:
            i = (found & -found).bit_length() - 1
            orbit_prev[i] = k
            found &= found - 1
    return orbit_prev


def _automorphism(adj: list[int], k: int, u: int, cell: list[int]) -> list[int] | None:
    """The images of positions k..p-1 under an automorphism that fixes
    0..k-1 and maps k to u, or None if there is none.  Each position x
    maps into cell[x - k]; the search assigns k, k+1, ... in turn and
    keeps, for every position not yet assigned, the images still consistent
    with the adjacencies to the assigned ones (forward checking).  It keeps
    its own stack, so its depth is not bounded by the interpreter's."""
    p = len(adj)
    sigma = [0] * (p - k)
    # per assigned position x: the images of x + 1, x + 2, ... still allowed,
    # and the images of x not yet tried
    stack = [(cell[1:], 1 << u)]
    while stack:
        dom, untried = stack[-1]
        if not untried:
            stack.pop()
            continue
        stack[-1] = dom, untried & (untried - 1)
        x, y = k + len(stack) - 1, (untried & -untried).bit_length() - 1
        sigma[x - k] = y
        if x + 1 == p:
            return sigma
        ay, ax, taken = adj[y], adj[x], ~(1 << y)
        nxt = [d & taken & (ay if ax >> (x + 1 + i) & 1 else ~ay) for i, d in enumerate(dom)]
        if all(nxt):
            stack.append((nxt[1:], nxt[0]))
    return None
