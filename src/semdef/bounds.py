"""Closed-form bounds on super edge-magic deficiency.

All lower bounds come from one counting fact: a SEM graph satisfies
q <= 2p - 3, so G U tK_1 needs t >= ceil((q+3)/2) - p.  p and q come from
the family's closed forms (graphs.family_size); no graph is built.  The
family-specific lower-bound formulas for path/star/cycle joins are exactly
this counting bound (bound_identity_mismatch checks the coincidence at one
(n, m), check_bound_identities over a grid).  Upper bounds are the filler
counts of the verified constructions, read from the one filler table
through constructions.filler_row; residues without a construction report
an explicitly unknown upper bound rather than failing.
"""

from __future__ import annotations

from typing import NamedTuple

from .constructions import coverage, filler_row
from .graphs import FamilyDescriptor, family_size

SOURCE_COUNTING = "counting"


class DeficiencyBounds(NamedTuple):
    """lower <= deficiency <= upper (upper None = no construction)."""

    lower: int
    upper: int | None
    lower_source: str
    upper_source: str | None

    @property
    def exact(self) -> int | None:
        return self.lower if self.lower == self.upper else None


def counting_lower_bound(p: int, q: int) -> int:
    """Least t >= 0 with q <= 2(p + t) - 3, i.e. max(0, ceil((q+3)/2) - p).

    The edge-budget argument presumes at least one edge; an edgeless graph
    is SEM outright, so q == 0 returns 0 (the closed form would wrongly give
    1 for a single vertex).
    """
    if p < 1:
        raise ValueError(f"counting bound needs p >= 1, got {p}")
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if q == 0:
        return 0
    return max(0, (q + 4) // 2 - p)


def _counting_for(d: FamilyDescriptor) -> int:
    return counting_lower_bound(*family_size(d))


def family_grid(kind: str, n_max: int, m_max: int) -> list[FamilyDescriptor]:
    """Every descriptor of kind that family_bounds covers, with n <= n_max
    and m <= m_max (m is None for wheel-minus-spoke), n-major."""
    n_lo, m_lo = coverage(kind)
    m_values = [None] if m_lo is None else range(m_lo, m_max + 1)
    return [FamilyDescriptor(kind, n=n, m=m) for n in range(n_lo, n_max + 1) for m in m_values]


def family_bounds(d: FamilyDescriptor) -> DeficiencyBounds:
    """Best closed-form bounds for a join-family descriptor.

    Covers what constructions.filler_row covers, and raises its errors; its
    filler formulas give the upper bounds (unknown where the row is None).
    """
    row = filler_row(d.kind, d.n, d.m)
    lower = _counting_for(d)
    if row is None:
        return DeficiencyBounds(lower, None, SOURCE_COUNTING, None)
    upper, source, exact = row
    if exact:
        return DeficiencyBounds(upper, upper, source, source)
    return DeficiencyBounds(lower, upper, SOURCE_COUNTING, source)


def bound_identity_mismatch(n: int, m: int) -> str | None:
    """The join family whose lower-bound formula differs from the counting
    bound at (n, m), or None if all three agree.  The formulas:
      path join:   ceil((n-2)(m-1)/2)        == counting(n+m,   n(m+1)-1)
      star join:   ceil((n-1)(m-1)/2)        == counting(n+m+1, (n+1)(m+1)-1)
      cycle join:  floor((m+1)n/2)-(n+m)+2   == counting(n+m,   n(m+1))
    """
    if counting_lower_bound(n + m, n * (m + 1) - 1) != -(-((n - 2) * (m - 1)) // 2):
        return "path-join"
    if counting_lower_bound(n + m + 1, (n + 1) * (m + 1) - 1) != -(-((n - 1) * (m - 1)) // 2):
        return "star-join"
    if counting_lower_bound(n + m, n * (m + 1)) != (m + 1) * n // 2 - (n + m) + 2:
        return "cycle-join"
    return None


def check_bound_identities(n_max: int, m_max: int) -> tuple[str, int, int] | None:
    """bound_identity_mismatch over all 3 <= n <= n_max, 2 <= m <= m_max: the
    first mismatch as (family, n, m), or None if all agree."""
    for n in range(3, n_max + 1):
        for m in range(2, m_max + 1):
            family = bound_identity_mismatch(n, m)
            if family is not None:
                return (family, n, m)
    return None
