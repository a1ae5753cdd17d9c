"""Orbit links of a graph's automorphisms, for the solver's symmetry cut.

orbit_prev(adj) takes the graph as neighbour bitmasks over the positions of
the search order and returns, for each position i, the greatest k < i such
that an automorphism fixing positions 0..k-1 maps k to i (-1 if none): the
position whose label position i must exceed (see the solver docstring).
The solver's _plan imports this module when it first builds a search plan
without the compiled kernel, so neither `import semdef` nor a process whose
plans the kernel builds (_dfs.c's semdef_plan, a port of this module) loads
it.
"""

from __future__ import annotations


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
