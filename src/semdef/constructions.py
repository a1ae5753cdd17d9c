"""Explicit super edge-magic labelings for the supported families.

Every constructor re-verifies its labeling through the consecutive-edge-sums
checker, and checks that its largest label is p + t, before returning, so a
wrong formula cannot ship silently.  Where the source formulas fail that
check, the corrected form is used and the correction is recorded in
``errata_applied``.  The stated, failing labels are kept as ``uncorrected_*``
fixtures, and ``ERRATA`` pairs each with its corrected construction, so
``erratum_demo(tag)`` re-demonstrates the failure and its fix.

The isolated-vertex (filler) count of each family's construction, and which
(n, m) have a construction at all, are written once, in the filler formulas
tabulated at ``CONSTRUCTIONS``; every constructor and the bounds ask
``filler_row``, and the report and the CLI ask them.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    FamilyDescriptor,
    Graph,
    empty_graph,
    family_size,
    join,
    path,
    star,
    cycle,
    wheel_minus_spoke,
)
from .labeling import (
    Labeling,
    Rejection,
    SemCertificate,
    verify_sem,
    REASON_DUPLICATE_LABEL,
    REASON_DUPLICATE_SUM,
    REASON_OUT_OF_RANGE,
)

# Correction tags (reported via ConstructionResult.errata_applied).
ERRATUM_CYCLE_EVEN = "cycle-join-even-position-formula"
ERRATUM_STAR_CENTER = "star-join-center-label"
ERRATUM_P6_VLIST = "path6-join-v-list"
ERRATUM_WHEEL_RANGES = "wheel-odd-index-ranges"


class ConstructionResult(NamedTuple):
    """A verified certificate plus the construction's bookkeeping."""

    certificate: SemCertificate
    errata_applied: tuple[str, ...] = ()

    @property
    def claimed_isolated(self) -> int:
        """The construction's filler count t (its labels end at p + t)."""
        return self.certificate.isolated


class ConstructionError(RuntimeError):
    """A constructor produced a labeling its own checks rejected (a bug)."""


def _certify(g: Graph, labels: list[int], isolated: int, errata=()) -> ConstructionResult:
    """Verify the labeling, whose largest label must be p + t (t is minimal)."""
    lab = Labeling(labels, g.vertex_count + isolated)
    result = verify_sem(g, lab)
    if isinstance(result, Rejection):
        raise ConstructionError(
            f"internal error: construction rejected ({result.reason}: {result.detail})"
        )
    if max(labels) != lab.total_labels:
        raise ConstructionError(
            f"internal error: largest label {max(labels)} is not p + t = {lab.total_labels}"
        )
    return ConstructionResult(result, tuple(errata))


# ---------------------------------------------------------------------------
# Wheel minus a spoke
# ---------------------------------------------------------------------------

# (c; x_1..x_n) labelings for the small cases.
_WHEEL_SMALL = {
    3: (1, 4, 3, 2),
    4: (2, 3, 1, 4, 5),
    5: (1, 7, 5, 3, 6, 4),
    6: (2, 3, 1, 4, 8, 5, 6),
    7: (2, 3, 1, 4, 8, 5, 9, 6),
}


def construct_wheel_minus_spoke(n: int, m: int | None = None) -> ConstructionResult:
    """Best known certificate for H_n.  The family takes no m: m is accepted
    only as None, for callers that pass every constructor (n, m), and any
    other m raises ValueError.

    3 <= n <= 7: the hand labelings of _WHEEL_SMALL.

    Odd n >= 9: hub gets (3n-1)/2, odd rim positions count up from 1, even
    rim positions continue from ceil(n/2)+1.  The index ranges are taken as
    "all odd i" / "all even i" in 1..n (see ERRATUM_WHEEL_RANGES).

    n >= 8, n % 4 == 0: uses the variant graph whose missing spoke is
    c-x_{n/2}; hub gets (3n+2)/2 and the rim position n/2 gets 5n/4.
    """
    t = _fillers("wheel-minus-spoke", n, m)
    if n in _WHEEL_SMALL:
        return _certify(wheel_minus_spoke(n), list(_WHEEL_SMALL[n]), t)
    if n % 2 == 1:
        hub = (3 * n - 1) // 2
        x = [0] * (n + 1)
        for i in range(1, n + 1):
            if i % 2 == 1:
                x[i] = (i + 1) // 2
            else:
                x[i] = (n + 1) // 2 + i // 2
        g = wheel_minus_spoke(n)
        return _certify(g, [hub] + x[1:], t, errata=(ERRATUM_WHEEL_RANGES,))
    # n % 4 == 0
    hub = (3 * n + 2) // 2
    half = n // 2
    x = [0] * (n + 1)
    for i in range(1, n + 1):
        if i % 2 == 1:
            x[i] = (i + 1) // 2
        elif i < half:
            x[i] = (n + i) // 2
        elif i == half:
            x[i] = 5 * n // 4
        else:
            x[i] = (n + i - 2) // 2
    g = wheel_minus_spoke(n, missing_spoke=half)
    return _certify(g, [hub] + x[1:], t)


def uncorrected_wheel_odd_labeling(n: int) -> list[int]:
    """Odd-n wheel labels (hub first) with the index ranges read literally.

    The ranges "odd i up to n-1" and "even i up to n-2" leave the last rim
    positions unlabeled for odd n (marked 0), so the verifier rejects with
    label-out-of-range.
    """
    if n < 9 or n % 2 == 0:
        raise ValueError(f"fixture is defined for odd n >= 9, got {n}")
    hub = (3 * n - 1) // 2
    x = [0] * (n + 1)
    for i in range(1, n + 1):
        if i % 2 == 1 and i <= n - 1:
            x[i] = (i + 1) // 2
        elif i % 2 == 0 and i <= n - 2:
            x[i] = (n + 1) // 2 + i // 2
    return [hub] + x[1:]


# ---------------------------------------------------------------------------
# Path join products  P_n + empty(m)
# ---------------------------------------------------------------------------

def construct_path_join(n: int, m: int) -> ConstructionResult:
    """Verified labeling of P_n + empty(m), n >= 1, m >= 2.

    n = 1 is the star K_{1,m}; n = 2 needs no fillers either.  n = 4 and
    n = 6 have special labelings meeting their counting lower bounds; other
    n use the generic pattern.
    """
    t = _fillers("path-join", n, m)
    g = join(path(n), empty_graph(m))
    if n == 1:
        return _certify(g, [1] + [1 + j for j in range(1, m + 1)], t)
    if n == 2:
        return _certify(g, [1, m + 2] + [1 + j for j in range(1, m + 1)], t)
    if n == 4:
        u = [1, 2, 2 * m + 2, 2 * m + 3]
        v = [2 * j + 1 for j in range(1, m + 1)]
        return _certify(g, u + v, t)
    if n == 6:
        u = [2, 1, 3, 3 * m + 2, 3 * m + 4, 3 * m + 3]
        v = [3 * j + 1 for j in range(1, m + 1)]
        return _certify(g, u + v, t, errata=(ERRATUM_P6_VLIST,))
    u = [0] * (n + 1)
    for i in range(1, n + 1):
        if i % 2 == 1:
            u[i] = (n + 2) // 2 + (i - 1) // 2
        else:
            u[i] = n + i // 2
    v = [1] + [j * n for j in range(2, m + 1)]
    return _certify(g, u[1:] + v, t)


def uncorrected_path6_v_list(m: int) -> list[int]:
    """P_6 join labels with the broken v-list read literally.

    The list "4, 7, 10, ..., 2m-5, 2m-2, 3m+1" is not an arithmetic
    progression; materialized term by term (step-3 prefix, then the three
    printed tail values) it repeats labels for m >= 4.
    """
    if m < 4:
        raise ValueError(f"fixture needs m >= 4 for the tail to overlap, got {m}")
    u = [2, 1, 3, 3 * m + 2, 3 * m + 4, 3 * m + 3]
    v = [3 * j + 1 for j in range(1, m - 2)] + [2 * m - 5, 2 * m - 2, 3 * m + 1]
    return u + v


# ---------------------------------------------------------------------------
# Star join products  K_{1,n} + empty(m)
# ---------------------------------------------------------------------------

def construct_star_join(n: int, m: int) -> ConstructionResult:
    """Verified labeling of K_{1,n} + empty(m), n >= 2, m >= 1.

    m = 1: center 1, leaves 2..n+1, added vertex n+2.  This is the
    corrected single-vertex labeling (ERRATUM_STAR_CENTER): giving the
    center label n+1 instead produces colliding edge sums.
    m >= 2: center n+2, leaves 2..n+1, added vertices {1, 2(n+1), ..,
    m(n+1)}.  n = 1 is left to the path join P_2 + empty(m).
    """
    t = _fillers("star-join", n, m)
    g = join(star(n), empty_graph(m))
    x = [i + 1 for i in range(1, n + 1)]
    if m == 1:
        return _certify(g, [1] + x + [n + 2], t, errata=(ERRATUM_STAR_CENTER,))
    y = [1] + [j * (n + 1) for j in range(2, m + 1)]
    return _certify(g, [n + 2] + x + y, t)


def uncorrected_star_join_single(n: int) -> list[int]:
    """K_{1,n} + empty(1) labels with the center n+1 (leaves 1..n, extra n+2).

    Edge sums collide: center-to-leaf i+1 and leaf-i-to-extra both give
    n+2+i, so the verifier rejects with duplicate-sum.
    """
    if n < 2:
        raise ValueError(f"fixture needs n >= 2, got {n}")
    return [n + 1] + list(range(1, n + 1)) + [n + 2]


# ---------------------------------------------------------------------------
# Cycle join products  C_n + empty(m), odd n
# ---------------------------------------------------------------------------

def construct_cycle_join(n: int, m: int) -> ConstructionResult:
    """Verified labeling of C_n + empty(m) for odd n >= 3, m >= 2.

    Rim position i gets (n+2+i)/2 for odd i and n+1+i/2 for even i; the even
    formula is the corrected one (ERRATUM_CYCLE_EVEN) -- the original grows
    quadratically and leaves the label range.  Added vertices get
    {1, 2n+1, 3n+1, ..., mn+1}.
    """
    t = _fillers("cycle-join", n, m)
    g = join(cycle(n), empty_graph(m))
    u = [(n + 2 + i) // 2 if i % 2 == 1 else n + 1 + i // 2 for i in range(1, n + 1)]
    v = [1] + [j * n + 1 for j in range(2, m + 1)]
    return _certify(g, u + v, t, errata=(ERRATUM_CYCLE_EVEN,))


def uncorrected_cycle_join_labeling(n: int, m: int) -> list[int]:
    """Cycle join labels with the quadratic even-position formula.

    Even rim position i gets (i/2)(2n+2+i), which already exceeds the label
    budget mn+1 at i = 2 for small m, so the verifier rejects with
    label-out-of-range.
    """
    if n < 3 or n % 2 == 0 or m < 2:
        raise ValueError(f"fixture needs odd n >= 3 and m >= 2, got n={n} m={m}")
    u = [
        (n + 2 + i) // 2 if i % 2 == 1 else (i // 2) * (2 * n + 2 + i)
        for i in range(1, n + 1)
    ]
    return u + [1] + [j * n + 1 for j in range(2, m + 1)]


# ---------------------------------------------------------------------------
# Generic join  G + empty(m) for a SEM base G
# ---------------------------------------------------------------------------

def construct_general_join(base: SemCertificate, m: int) -> ConstructionResult:
    """Join any SEM graph (no fillers) with m independent vertices.

    Keeps the base labeling and labels the added vertices s, s+p, ...,
    s+(m-1)p where s is the base's largest edge sum and p its order; yields
    s + (m-2)p - m fillers.  Requires s > p so the added labels miss the
    base labels {1..p}.
    """
    if m < 1:
        raise ValueError(f"generic join needs m >= 1, got {m}")
    if base.isolated != 0:
        raise ValueError(
            f"base certificate must have no fillers, got isolated={base.isolated}"
        )
    g0 = base.graph
    p = g0.vertex_count
    if g0.q == 0:
        raise ValueError("base graph has no edges, so it has no largest edge sum")
    top_sum = base.min_edge_sum + g0.q - 1
    if top_sum <= p:
        raise ValueError(
            f"added label {top_sum} would collide with base labels 1..{p}"
            " (largest base edge sum must exceed the base order)"
        )
    g = join(g0, empty_graph(m))
    y = [top_sum + (j - 1) * p for j in range(1, m + 1)]
    t = top_sum + (m - 2) * p - m
    return _certify(g, list(base.labeling.labels) + y, t)


# ---------------------------------------------------------------------------
# The construction table
# ---------------------------------------------------------------------------

# Where an upper bound on the deficiency comes from.
SOURCE_SMALL_CASE = "explicit-small-case"
SOURCE_WHEEL_CONSTRUCTION = "wheel-minus-spoke-construction"
SOURCE_PATH_JOIN_CONSTRUCTION = "path-join-construction"
SOURCE_STAR_JOIN_CONSTRUCTION = "star-join-construction"
SOURCE_CYCLE_JOIN_CONSTRUCTION = "cycle-join-construction"


# Filler formulas: (t, upper-bound source, whether t is the exact deficiency)
# for an (n, m) that filler_row has checked, or None where the family has no
# construction.

def _wheel_fillers(n: int):
    if n <= 4:
        return 0, SOURCE_SMALL_CASE, True
    if n <= 7:
        return 1, SOURCE_SMALL_CASE, True
    if n % 4 == 2:
        return None
    return (n - 3) // 2 if n % 2 else n // 2, SOURCE_WHEEL_CONSTRUCTION, False


def _path_join_fillers(n: int, m: int):
    if n <= 2:
        return 0, SOURCE_SMALL_CASE, True
    if n == 4:
        return m - 1, SOURCE_SMALL_CASE, False
    if n == 6:
        return 2 * (m - 1), SOURCE_SMALL_CASE, False
    return (n - 1) * (m - 1) - 1, SOURCE_PATH_JOIN_CONSTRUCTION, False


def _star_join_fillers(n: int, m: int):
    if m == 1:
        return 0, SOURCE_SMALL_CASE, True
    return n * (m - 1) - 1, SOURCE_STAR_JOIN_CONSTRUCTION, False


def _cycle_join_fillers(n: int, m: int):
    if n % 2 == 0:
        return None
    return m * n - (n + m) + 1, SOURCE_CYCLE_JOIN_CONSTRUCTION, False


# family -> (constructor taking (n, m), least n and m the constructions cover
# (m None for a family without m), filler formula taking (n, m), or n alone
# for a family without m).  The filler counts the
# formulas give:
#
#   wheel-minus-spoke H_n    n = 3, 4 -> 0; n = 5..7 -> 1    (exact)
#                            n >= 8 odd       -> (n-3)/2
#                            n >= 8, n%4 == 0 -> n/2   (missing spoke at n/2)
#                            n >= 8, n%4 == 2 -> none known
#   P_n + mK_1, m >= 2       n = 1, 2 -> 0                    (exact)
#                            n = 4 -> m-1; n = 6 -> 2(m-1)
#                            otherwise (n-1)(m-1)-1
#   K_{1,n} + mK_1, n >= 2   m = 1 -> 0                       (exact)
#                            otherwise n(m-1)-1
#   C_n + mK_1, m >= 2       n odd -> mn-(n+m)+1; n even -> none known
#
# "exact" marks the small cases whose count is the deficiency itself; every
# other count is an upper bound.  construct_general_join (G + mK_1 for a SEM
# base G, s + (m-2)|V(G)| - m fillers with s the largest edge sum of G) is
# not tabulated: its count depends on the base certificate.
CONSTRUCTIONS = {
    "wheel-minus-spoke": (construct_wheel_minus_spoke, 3, None, _wheel_fillers),
    "path-join": (construct_path_join, 1, 2, _path_join_fillers),
    "star-join": (construct_star_join, 2, 1, _star_join_fillers),
    "cycle-join": (construct_cycle_join, 3, 2, _cycle_join_fillers),
}


def coverage(kind: str) -> tuple[int, int | None]:
    """The least n and m (None for a family without m) the constructions of
    kind cover; an untabulated kind raises ValueError."""
    if kind not in CONSTRUCTIONS:
        raise ValueError(f"no closed-form deficiency bounds for family {kind!r}")
    return CONSTRUCTIONS[kind][1:3]


def filler_row(kind: str, n: int, m: int | None = None):
    """The filler formula's (t, source, exact) for kind at (n, m), or None
    where the family has no construction.

    This is the one coverage rule: every constructor and
    bounds.family_bounds ask it.  An untabulated kind, and an (n, m)
    below a limit of coverage(kind) that is tighter than the family's own,
    raise ValueError; any other invalid descriptor raises make_family's
    ValueError.
    """
    n_lo, m_lo = coverage(kind)
    family_size(FamilyDescriptor(kind, n=n, m=m))
    if n < n_lo:
        raise ValueError(f"{kind} constructions cover n >= {n_lo}, got n={n}")
    if m_lo is not None and m < m_lo:
        raise ValueError(f"{kind} constructions cover m >= {m_lo}, got m={m}")
    fillers = CONSTRUCTIONS[kind][3]
    return fillers(n) if m_lo is None else fillers(n, m)


def _fillers(kind: str, n: int, m: int | None = None) -> int:
    """The filler count t of kind's construction at (n, m)."""
    row = filler_row(kind, n, m)
    if row is None:
        where = f"n={n}" if m is None else f"n={n}, m={m}"
        raise ValueError(f"no construction is known for {kind} {where}; deficiency open")
    return row[0]


# ---------------------------------------------------------------------------
# Erratum demonstrations
# ---------------------------------------------------------------------------

class ErratumDemo(NamedTuple):
    """A paired fixture: the stated labeling fails, the corrected one passes."""

    tag: str
    graph: Graph
    rejected_labeling: Labeling
    expected_reason: str
    corrected: ConstructionResult


# tag -> (corrected construction, stated labels, the verifier's reason for
# rejecting them on the corrected certificate's graph and label budget).
ERRATA = {
    ERRATUM_CYCLE_EVEN: (lambda: construct_cycle_join(5, 2),
                         lambda: uncorrected_cycle_join_labeling(5, 2), REASON_OUT_OF_RANGE),
    ERRATUM_STAR_CENTER: (lambda: construct_star_join(3, 1),
                          lambda: uncorrected_star_join_single(3), REASON_DUPLICATE_SUM),
    ERRATUM_P6_VLIST: (lambda: construct_path_join(6, 6),
                       lambda: uncorrected_path6_v_list(6), REASON_DUPLICATE_LABEL),
    ERRATUM_WHEEL_RANGES: (lambda: construct_wheel_minus_spoke(9),
                           lambda: uncorrected_wheel_odd_labeling(9), REASON_OUT_OF_RANGE),
}


def erratum_demo(tag: str) -> ErratumDemo:
    """The machine-checkable demonstration of one correction in ERRATA."""
    construct, stated, reason = ERRATA[tag]
    corrected = construct()
    cert = corrected.certificate
    rejected = Labeling(stated(), cert.labeling.total_labels)
    return ErratumDemo(tag, cert.graph, rejected, reason, corrected)


def erratum_demos() -> list[ErratumDemo]:
    """One demonstration per correction, in ERRATA order."""
    return [erratum_demo(tag) for tag in ERRATA]
