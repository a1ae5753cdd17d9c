"""Exact SEM decision and deficiency by exhaustive backtracking.

find_sem(g, t) decides whether G U tK_1 has a SEM labeling by depth-first
assignment of labels {1..p+t} to vertices in descending-degree order (ties by
index): high-degree vertices constrain the edge sums fastest.  Labels are
tried in ascending order, so the first witness found is the lexicographically
least labeling along that fixed assignment order, and re-running never
changes it.

Pruning (all sound: no rule drops a prefix of that least witness):
  * each new edge sum must be distinct from the realized ones and keep
    max - min <= q - 1;
  * window support: the q edge sums fill a window s..s+q-1 exactly once, so
    on entering a position every sum that lies in every window still
    possible must be realized already or still be realizable -- by two free
    labels on an edge between unassigned vertices, or by a free label at an
    unassigned neighbour of an assigned vertex.  Every unrealized such sum
    is checked (the support reasoning of Regin's alldifferent filtering,
    AAAI 1994, on the bijection from edges to window values).  _run_search
    tests the sums one at a time; the kernel tests a 64-bit word of them at
    once, against the OR of the free labels shifted up by each open
    position's label and, for the edges between unassigned vertices, of the
    free labels above l shifted up by each free label l;
  * the degree-weighted label sum must stay inside the interval achievable
    by any completion, intersected with the interval forced by the possible
    starting sums (see labeling.weighted_sum_required).

Complement symmetry: if f is a witness then so is N+1-f, with the edge sums
reflected; the first assigned vertex may therefore be restricted to labels
1..ceil(N/2) without losing any witness with minimal first label, so the
returned witness is unchanged.

Automorphism symmetry: if sigma is an automorphism of G and f a witness,
then f o sigma is a witness too, with the same edge sums.  Let v_k be the
vertex at position k and O_k its orbit under the automorphisms that fix
v_0..v_{k-1}.  Each sigma there makes W o sigma agree with the least witness
W before position k and take W(sigma(v_k)) at k, so W(v_k) < W(u) for every
u in O_k other than v_k (the stabilizer form of a lex-leader predicate:
Crawford, Ginsberg, Luks and Roy, KR 1996; Puget, CP 2003).  The search
keeps one of these constraints per position: position i takes a label above
that of orbit_prev[i], the greatest k < i with v_i in O_k (see _orbits.py).
The others follow: if v_i is in O_k and O_k' with k < k', sigma fixing
v_0..v_{k'-1} and tau fixing v_0..v_{k-1} map v_k' and v_k to v_i, then
tau^-1 sigma fixes v_0..v_{k-1} and maps v_k' to v_k, so v_k' is in O_k and
W(v_k) < W(v_k') < W(v_i) already holds, by induction on the position.
Twins -- vertices with the same open neighbourhood N(v), like the added
vertices of a join, or the same closed one N[v], like the triangle of
C_3+mK_1 -- are the case of sigma a transposition, so every twin class is
searched in ascending order, which cuts up to m! orderings of the m added
vertices of G+mK_1.  The wheels and cycle joins add the rotations and
reflections of the cycle.

Shift symmetry (pinned labels): adding a constant to every label adds twice
that constant to every edge sum, so the sums stay consecutive and a witness
shifted within 1..N stays a witness.  Shifting the lexicographically least
witness W down until its least label is 1 would lower every label, so W
already uses label 1, and find_sem pins it: on entering a position, the leaf
past the last one included, a pinned label that is still free needs an
unassigned position that can take it (its sums with the assigned neighbours
repeat no realized sum and keep the span <= q-1, it has no orbit predecessor
when the label is 1, and it is not position 0 when the label exceeds
ceil(N/2)), and at least as many positions must be unassigned as pinned
labels are free.  Both backends rescan those positions on every entry.
This is again a lex-leader predicate.  The three symmetry cuts compose
because each keeps the same witness W, the least one overall: W uses label 1
by the shift argument; its first label is at most ceil(N/2), since the
complement N+1-W is a witness too; and W(v_k) < W(u) for u in O_k, since
W o sigma is a witness too.  So no cut drops a prefix of W, every leaf the
search accepts is a witness, and the first one it reaches is still W.

deficiency pins label N as well.  Its loop runs t upwards from t0, the
counting bound, so t-1 is known to fail: at t0 by counting (q > 2(p+t0-1)-3,
or t0 = 0, where p vertices do not fit in p-1 labels), and at any later t
because the search at t-1 was exhausted.  W at t has least label 1, and if
its largest label were below N it would be a witness in 1..N-1, at t-1; so W
uses N.  Nowhere else is that known: at t = D+1 the least witness of H_5
(D = 1) fits in 1..N-1, so find_sem pins label 1 only.

Every cut is always on; no parameter switches one off.  The tests' reference
is tests/oracles.py, an independent search in the same order that drops a
partial labeling only on a repeated sum or a span above q-1, so it returns
the least witness by construction; find_sem and deficiency must return it.

Backends: _run_search is the pure-Python reference and _dfs.c a compiled
port of it, built and loaded by _kernel.py at the first search that places
a label (never at import).  _find alone calls them.  It settles the
searches that place no label (p = 0, and a search past the counting bound)
and runs the rest in `_kernel.load() or _run_search`, with the same three
arguments (plan, N, pins): g's _Plan, built once per find_sem or deficiency
call; N = p + t, the label count; and pins, the number of the labels 1 and N
pinned, at most N.  Each backend derives the rest itself: q, the plan's
pstart[-1], and ceil(N/2), the first position's last label under the
complement cut.  The kernel takes the plan as one C struct, converted once
per plan, so deficiency's searches share one conversion.  So both follow
the same order, candidates and pruning, and return the same witness after
the same number of nodes; _dfs.c's header says how the kernel gets there
faster.  Without a compiler, on a compile or load error, or with a cache
directory that cannot be written, every search runs in _run_search, which
recurses once per position and raises SearchLimitError on a graph too large
for the interpreter's recursion limit; the kernel raises it when it cannot
allocate its tables.  SearchResult.backend names the backend used; there is
no setting to choose it.

Every search runs in one process.  Searches beyond the configured
label-count limit raise SearchLimitError rather than guessing.
"""

from __future__ import annotations

import time
from itertools import accumulate
from typing import NamedTuple

from .bounds import counting_lower_bound
from .graphs import Graph
from .labeling import Labeling, Rejection, SemCertificate, verify_sem, weighted_sum_required

DEFAULT_MAX_LABELS = 16


class SearchLimitError(RuntimeError):
    """The requested search exceeds a limit: the configured label count, the
    memory the compiled kernel can allocate for its tables, or, in the
    Python reference search, the interpreter's recursion depth."""


class SearchResult(NamedTuple):
    """Outcome of one exhaustive existence search at a fixed filler count.

    witness None means the search was exhaustive over all injective
    labelings into {1..total_labels} and found none.  backend is "c" when
    the compiled kernel ran the search, "python" when _run_search did.
    seconds is the backend's own time: it leaves out building the plan,
    building and loading the kernel, and re-verifying the witness.
    """

    witness: SemCertificate | None
    total_labels: int
    nodes: int
    seconds: float
    backend: str

    def __bool__(self) -> bool:
        return self.witness is not None


class SearchOutcome(NamedTuple):
    """Result of the deficiency minimization up to a cap.

    deficiency is the exact value when a witness exists (every smaller
    filler count was exhausted or excluded by counting); None means no
    witness exists for any t <= cap.  backend is that of the last search
    run, "python" when none ran.  seconds is the sum of the searches'
    SearchResult.seconds.
    """

    deficiency: int | None
    witness: SemCertificate | None
    cap: int
    nodes: int
    seconds: float
    backend: str

    @property
    def is_exact(self) -> bool:
        return self.deficiency is not None


class _Plan(NamedTuple):
    """g's search plan, which depends on the graph alone, in the layout
    semdef_dfs takes: per assignment position i, the vertex order[i]
    (descending degree, ties by index), its degree deg[i], the positions of
    its already-assigned neighbours prior[pstart[i] .. pstart[i + 1]), and
    orbit_prev[i], the last earlier position whose stabilizer orbit holds
    position i (-1 if none), whose label position i must exceed.  For the
    window-support cut on entering position i: inner[i] edges join two
    positions >= i, and open[ostart[i] .. ostart[i + 1]) are the positions
    < i with a neighbour at a position >= i."""

    order: list[int]
    deg: list[int]
    pstart: list[int]
    prior: list[int]
    orbit_prev: list[int]
    inner: list[int]
    ostart: list[int]
    open: list[int]


def _plan(g: Graph) -> _Plan:
    """The search plan of g; find_sem and deficiency build it once per call."""
    from . import _orbits  # on first use, so `import semdef` compiles no orbit code

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
    open_at = [[j for j in range(i) if last_nbr[j] >= i] for i in range(p)]
    return _Plan(
        order,
        [deg[v] for v in order],
        [0, *accumulate(map(len, prior_at))],
        [j for js in prior_at for j in js],
        _orbits.orbit_prev(adj),
        list(accumulate(reversed(first_end)))[::-1],
        [0, *accumulate(map(len, open_at))],
        [j for js in open_at for j in js],
    )


def _run_search(plan: _Plan, n_total: int, pins: int) -> tuple[list[int] | None, int]:
    """Core DFS over plan with labels 1..n_total: a witness uses the first
    `pins` of the labels 1 and n_total.  The graph's q edges are the plan's
    pstart[-1], and position 0 takes the labels 1..ceil(n_total / 2), the
    complement cut.  Returns (labels per assignment position, nodes) or
    (None, nodes); nodes counts label placements attempted.  It recurses
    once per position, so a graph with more vertices than the interpreter's
    recursion limit allows raises SearchLimitError.
    """
    _, deg, pstart, prior, orbit_prev, inner, ostart, open_ = plan
    p, q, ntop = len(deg), pstart[-1], (n_total + 1) // 2
    suffix_degs = [deg[i:] for i in range(p + 1)]
    target_base = weighted_sum_required(q, 0)
    max_start = 2 * n_total - q  # largest possible min edge sum

    labels_at = [0] * p
    used = [False] * (n_total + 1)
    sum_seen = bytearray(2 * n_total + 1)
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

    pinned = [1, n_total][:pins]

    def fits(idx: int, j: int, x: int, lo: int, hi: int) -> bool:
        """Whether the unassigned position j can take the free label x: its
        sums with the assigned neighbours repeat no realized sum and keep
        the span <= q-1, label 1 goes on no position with an orbit
        predecessor, and position 0 takes only 1..ntop."""
        if (x == 1 and orbit_prev[j] >= 0) or (j == 0 and x > ntop):
            return False
        for k in prior[pstart[j]:pstart[j + 1]]:
            if k < idx:
                sm = x + labels_at[k]
                if sum_seen[sm]:
                    return False
                lo, hi = min(lo, sm), max(hi, sm)
        return hi < 0 or hi - lo <= q - 1

    def pins_supported(idx: int, lo: int, hi: int) -> bool:
        """Whether every pinned label still free has an unassigned position
        that can take it, and there are as many unassigned positions as
        free pinned labels."""
        free = [x for x in pinned if not used[x]]
        return len(free) <= p - idx and all(
            any(fits(idx, j, x, lo, hi) for j in range(idx, p)) for x in free)

    def rec(idx: int, lo: int, hi: int, wsum: int) -> list[int] | None:
        nonlocal nodes
        if pins and not pins_supported(idx, lo, hi):
            return None
        if idx == p:
            return list(labels_at)

        if idx > 0:
            # window-support cut: the sums s_hi..s_lo+q-1 lie in every window
            # still possible, so each is realized or still realizable
            s_lo, s_hi = window(lo, hi)
            for x in range(s_hi, s_lo + q):
                if not sum_seen[x] and not realizable(idx, x):
                    return None

        nbrs = prior[pstart[idx]:pstart[idx + 1]]
        # orbit rule: above the label of the orbit predecessor (position 0
        # has none)
        tp = orbit_prev[idx]
        for lab in range(labels_at[tp] + 1 if tp >= 0 else 1, (ntop if idx == 0 else n_total) + 1):
            if used[lab]:
                continue
            nodes += 1
            # The new sums pair lab with distinct placed labels, so they are
            # distinct from each other; only a realized sum can collide.
            new_lo, new_hi = lo, hi
            ok = True
            new_sums = []
            for j in nbrs:
                sm = lab + labels_at[j]
                if sum_seen[sm]:
                    ok = False
                    break
                new_sums.append(sm)
                if sm < new_lo:
                    new_lo = sm
                if sm > new_hi:
                    new_hi = sm
            if not ok or (new_hi >= 0 and new_hi - new_lo > q - 1):
                continue
            wsum2 = wsum + deg[idx] * lab
            if q > 0 and idx + 1 < p:
                # completion interval for the degree-weighted label sum;
                # the remaining degrees are already descending
                rem_degs = suffix_degs[idx + 1]
                avail = [a for a in range(1, n_total + 1) if not used[a] and a != lab]
                minc = 0
                maxc = 0
                last = len(avail) - 1
                for i, d in enumerate(rem_degs):
                    minc += d * avail[i]
                    maxc += d * avail[last - i]
                s_lo, s_hi = window(new_lo, new_hi)
                if (
                    wsum2 + minc > q * s_hi + target_base
                    or wsum2 + maxc < q * s_lo + target_base
                ):
                    continue
            labels_at[idx] = lab
            used[lab] = True
            for sm in new_sums:
                sum_seen[sm] = 1
            hit = rec(idx + 1, new_lo, new_hi, wsum2)
            for sm in new_sums:
                sum_seen[sm] = 0
            used[lab] = False
            if hit is not None:
                return hit
        return None

    try:
        found = rec(0, 10 * n_total, -1, 0)
    except RecursionError:
        raise SearchLimitError(
            f"the Python search recurses once per vertex, and {p} vertices go past the "
            "interpreter's recursion limit; it needs the compiled kernel (cc on PATH)"
        ) from None
    return found, nodes


def _check_max_labels(max_labels: int | None) -> None:
    if max_labels is not None and max_labels < 0:
        raise ValueError(f"max_labels must be >= 0, got {max_labels}")


def find_sem(
    g: Graph,
    t: int,
    *,
    max_labels: int | None = DEFAULT_MAX_LABELS,
) -> SearchResult:
    """Search exhaustively for a SEM labeling of g U tK_1.

    Returns a SearchResult whose witness, when present, has been re-verified
    by the checker; witness None is a proof by exhaustion over total_labels
    = p + t labels.  Raises SearchLimitError when p + t exceeds max_labels
    (pass max_labels=None to accept the runtime risk), and ValueError for a
    negative t or max_labels.
    """
    return _find(g, t, max_labels, 1)


def _find(
    g: Graph, t: int, max_labels: int | None, pins: int, plan: _Plan | None = None
) -> SearchResult:
    """find_sem with the first `pins` of the labels 1 and p + t pinned, on
    plan, g's _plan, which is built here when not given.  The only caller of
    the backends: it settles the searches that place no label (p = 0, and a
    search past the counting bound) and runs the rest in the compiled kernel
    when it loads, else in _run_search, with the same arguments."""
    if t < 0:
        raise ValueError(f"isolated filler count must be >= 0, got {t}")
    _check_max_labels(max_labels)
    n_total = g.vertex_count + t
    if max_labels is not None and n_total > max_labels:
        raise SearchLimitError(
            f"search needs {n_total} labels, over the limit of {max_labels}; "
            "raise max_labels to run anyway"
        )
    if g.vertex_count == 0:  # the empty labeling, with no search
        return SearchResult(verify_sem(g, Labeling((), n_total)), n_total, 0, 0.0, "python")
    if counting_lower_bound(n_total, g.q) > 0:
        return SearchResult(None, n_total, 0, 0.0, "python")
    from . import _kernel  # on first use, so `import semdef` loads no kernel code

    kernel = _kernel.load()
    if plan is None:
        plan = _plan(g)
    start = time.perf_counter()
    at, nodes = (kernel or _run_search)(plan, n_total, min(pins, n_total))
    seconds = time.perf_counter() - start
    backend = "python" if kernel is None else "c"
    if at is None:
        return SearchResult(None, n_total, nodes, seconds, backend)
    labels = [0] * g.vertex_count
    for v, lab in zip(plan.order, at):
        labels[v] = lab
    cert = verify_sem(g, Labeling(labels, n_total))
    if isinstance(cert, Rejection):
        raise RuntimeError(
            f"internal error: search produced an invalid witness ({cert.reason})"
        )
    return SearchResult(cert, n_total, nodes, seconds, backend)


def deficiency(
    g: Graph,
    cap: int,
    *,
    max_labels: int | None = DEFAULT_MAX_LABELS,
) -> SearchOutcome:
    """Exact deficiency of g, provided it is at most cap.

    Iterates the filler count from the counting lower bound (smaller values
    cannot work: q <= 2(p+t)-3 fails) up to cap; the first witness gives the
    exact value.  Each search pins labels 1 and p + t, which only holds where
    t - 1 is known to fail (see the module docstring): the witness is
    find_sem's, after fewer nodes.  The search plan, the orbit links
    included, is built once for all filler counts, and the kernel converts
    it once.  Exceeding the label limit raises SearchLimitError rather than
    returning a wrong or weakened answer; a negative cap or max_labels
    raises ValueError.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    _check_max_labels(max_labels)
    nodes = 0
    seconds = 0.0
    backend = "python"
    t0 = 0 if g.vertex_count == 0 else counting_lower_bound(g.vertex_count, g.q)
    plan = _plan(g)
    for t in range(t0, cap + 1):
        res = _find(g, t, max_labels, 2, plan)
        nodes += res.nodes
        seconds += res.seconds
        backend = res.backend
        if res.witness is not None:
            return SearchOutcome(t, res.witness, cap, nodes, seconds, backend)
    return SearchOutcome(None, None, cap, nodes, seconds, backend)
