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
    AAAI 1994, on the bijection from edges to window values).  The Python
    backend tests the sums one at a time; the kernel tests a 64-bit word of
    them at once, against the OR of the free labels shifted up by each open
    position's label and, for the edges between unassigned vertices, of the
    free labels above l shifted up by each free label l;
  * difference cut: on entering a position, for two assigned positions a
    and b, d = |f(a) - f(b)| apart, with c >= 2 unassigned common
    neighbours, those c vertices take c distinct free labels x with x + f(a)
    and x + f(b) unrealized, and no two of them differ by d, since x + f(a)
    = y + f(b) would repeat a sum.  The most such labels there are is the
    sum of ceil(L / 2) over the maximal runs x, x + d, ..., x + (L - 1)d of
    allowed labels (the difference constraints CP models of graceful graphs
    branch on, Petrie and Smith, CP 2003, with the same edge-sum
    alldifferent reasoning as window support); fewer than c prune.  Every
    SEM labeling extending the prefix meets it, so it drops no witness.
    The plan lists the pairs per position;
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
that of orbit_prev[i], the greatest k < i with v_i in O_k (see
_reference.orbit_prev; _dfs.c computes the same links).  The others follow:
if v_i is in O_k and O_k' with k < k', sigma fixing v_0..v_{k'-1} and tau
fixing v_0..v_{k-1} map v_k' and v_k to v_i, then tau^-1 sigma fixes
v_0..v_{k-1} and maps v_k' to v_k, so v_k' is in O_k and W(v_k) < W(v_k')
< W(v_i) already holds, by induction on the position.
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
labels are free.  Both backends rescan those positions on every entry,
after the difference and window-support cuts, which are checked first, in
that order; past the last position the pins are the only check.
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

Backends: the module _reference holds the pure-Python reference, _solve,
_plan and _run_search, with the orbit links of orbit_prev, and _dfs.c is a
compiled port of all of it, built and loaded by _kernel.py at the first
search that places a label (never at import; the module is imported once
per process).  find_sem and deficiency settle the searches that place
no label (p = 0, and a search past the counting bound) and make one backend
call for the rest, _search, with the same four arguments (g, t0, t1, pins):
the graph, the filler counts t0..t1 to search in turn up to the first
witness (t0 = t1 = t for find_sem, the counting bound..cap for deficiency),
and pins, the number of the labels 1 and N pinned (1 for find_sem, 2 for
deficiency), at most N = p + t.  _search re-verifies the witness once.  When
_kernel.load() succeeds, the solve of the kernel's extension module runs
the call: it reads g's edges as Graph.edges holds them, builds g's plan with
semdef_plan, orbit links included, as a C struct of _Plan's fields
(_reference is never imported), allocates its tables, searches each t and
returns the witness per vertex.  Otherwise _search imports _reference, and
its _solve builds a _Plan with _plan once and runs _run_search per t.  Each
search derives the rest from (plan, N, pins): q, the plan's pstart[-1], and
ceil(N/2), the first position's last label under the complement cut.  Both
builders make the same plan, field for field, and both searches follow the
same order, candidates and pruning, the checks on entering a position
included, and return the same witness after the same number of nodes;
_dfs.c's header says how the kernel gets there faster.  _run_search keeps
one generator per entered position on a stack of its own, so no graph is
too deep for it, and one placement rule, place, serves both its candidate
loop and its pin check.  Without a compiler, on a compile or load error, or
with a cache directory that cannot be written, every call runs in
_reference._solve.  SearchResult.backend names the backend used; there is
no setting to choose it.

Every search runs in one process, over the labels it is asked for: the
library sets no limit on their count.  The kernel raises SearchLimitError
when it cannot allocate its plan or its tables, rather than guessing, and
when a search would need more labels than its bitsets can index
(_kernel.MAX_LABELS, about 2^30).
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .bounds import counting_lower_bound
from .graphs import Graph
from .labeling import Labeling, Rejection, SemCertificate, verify_sem

class SearchLimitError(RuntimeError):
    """The compiled kernel could not finish the search: it could not
    allocate the plan, or its tables, or it found no witness within its
    _kernel.MAX_LABELS labels and the call asks for more."""


class SearchResult(NamedTuple):
    """Outcome of one exhaustive existence search at a fixed filler count.

    witness None means the search was exhaustive over all injective
    labelings into {1..total_labels} and found none.  backend is "c" when
    the compiled kernel ran the search, "python" when _run_search did.
    seconds times the one backend call, building the plan included; it
    leaves out building and loading the kernel, and re-verifying the
    witness.
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
    witness exists for any t <= cap.  backend is that of the backend call,
    "python" when none was made.  seconds times that one call, as
    SearchResult.seconds does: the plan and every filler count searched.
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
    """g's search plan, which depends on the graph alone, field for field
    the Plan that _dfs.c's semdef_plan fills: per assignment position i,
    the vertex order[i] (descending degree, ties by index), its degree
    deg[i], the positions of its already-assigned neighbours
    prior[pstart[i] .. pstart[i + 1]), and orbit_prev[i], the last earlier
    position whose stabilizer orbit holds position i (-1 if none), whose
    label position i must exceed.  For the window-support cut on entering
    position i: inner[i] edges join two positions >= i, and
    open[ostart[i] .. ostart[i + 1]) are the positions < i with a neighbour
    at a position >= i.  For the difference cut there:
    common[cstart[i] .. cstart[i + 1]) holds the triples a, b, c, ascending
    by (a, b), of the positions a < b < i with c >= 2 common neighbours at
    positions >= i."""

    order: list[int]
    deg: list[int]
    pstart: list[int]
    prior: list[int]
    orbit_prev: list[int]
    inner: list[int]
    ostart: list[int]
    open: list[int]
    cstart: list[int]
    common: list[int]


_kernel = None  # the module semdef._kernel, imported at the first search


def _search(g: Graph, t0: int, t1: int, pins: int
            ) -> tuple[int | None, SemCertificate | None, int, float, str]:
    """One backend call for the searches of one find_sem or deficiency call:
    the compiled kernel's solve when it loads, else _reference._solve, with
    the same arguments.  Returns (t, the witness re-verified, nodes, seconds
    of the backend call, backend name), t and the witness None when every t
    up to t1 was exhausted.  The callers settle the searches that place no
    label (p = 0, and t past the counting bound) and never make this call
    for them."""
    global _kernel
    if _kernel is None:  # once per process, so `import semdef` loads no kernel code
        from . import _kernel
    kernel = _kernel.load()
    if kernel:
        run = kernel.solve
    else:  # only here, so a process whose searches the kernel runs compiles no Python DFS
        from . import _reference

        run = _reference._solve
    start = time.perf_counter()
    t, labels, nodes = run(g, t0, t1, pins)
    seconds = time.perf_counter() - start
    backend = "c" if kernel else "python"
    if t is None:
        return None, None, nodes, seconds, backend
    cert = verify_sem(g, Labeling(labels, g.vertex_count + t))
    if isinstance(cert, Rejection):
        raise RuntimeError(f"internal error: search produced an invalid witness ({cert.reason})")
    return t, cert, nodes, seconds, backend


def find_sem(g: Graph, t: int) -> SearchResult:
    """Search exhaustively for a SEM labeling of g U tK_1.

    Returns a SearchResult whose witness, when present, has been re-verified
    by the checker; witness None is a proof by exhaustion over total_labels
    = p + t labels.  Raises ValueError for a negative t, and SearchLimitError
    when the compiled kernel cannot allocate its plan or tables.
    """
    if t < 0:
        raise ValueError(f"isolated filler count must be >= 0, got {t}")
    n_total = g.vertex_count + t
    if g.vertex_count == 0:  # the empty labeling, with no search
        return SearchResult(verify_sem(g, Labeling((), n_total)), n_total, 0, 0.0, "python")
    if counting_lower_bound(n_total, g.q) > 0:
        return SearchResult(None, n_total, 0, 0.0, "python")
    _, witness, nodes, seconds, backend = _search(g, t, t, 1)
    return SearchResult(witness, n_total, nodes, seconds, backend)


def deficiency(g: Graph, cap: int) -> SearchOutcome:
    """Exact deficiency of g, provided it is at most cap.

    Searches the filler count from the counting lower bound (smaller values
    cannot work: q <= 2(p+t)-3 fails) up to cap, in one backend call; the
    first witness gives the exact value.  Each search pins labels 1 and
    p + t, which only holds where t - 1 is known to fail (see the module
    docstring): the witness is find_sem's, after fewer nodes.  The search
    plan, the orbit links included, is built once for all filler counts,
    by the kernel when it loads; when p = 0 or the counting bound exceeds
    cap, nothing is searched and no plan is built.  A negative cap raises
    ValueError, and a kernel that cannot allocate its plan or tables
    SearchLimitError.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if g.vertex_count == 0:  # the empty labeling, with no search
        return SearchOutcome(0, verify_sem(g, Labeling((), 0)), cap, 0, 0.0, "python")
    t0 = counting_lower_bound(g.vertex_count, g.q)
    if t0 > cap:
        return SearchOutcome(None, None, cap, 0, 0.0, "python")
    t, witness, nodes, seconds, backend = _search(g, t0, cap, 2)
    return SearchOutcome(t, witness, cap, nodes, seconds, backend)
