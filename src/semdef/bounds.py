"""Closed-form bounds on super edge-magic deficiency.

All lower bounds come from one counting fact: a SEM graph satisfies
q <= 2p - 3, so G U tK_1 needs t >= ceil((q+3)/2) - p.  p and q come from
the family's closed forms (graphs.family_size); no graph is built.  The
family-specific lower-bound formulas for path/star/cycle joins are exactly
this counting bound (check_bound_identities proves the coincidence over a
grid).  Upper bounds come from the verified constructions; residues
without a known construction report an explicitly unknown upper bound
rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import FamilyDescriptor, family_size

SOURCE_COUNTING = "counting"
SOURCE_SMALL_CASE = "explicit-small-case"
SOURCE_WHEEL_CONSTRUCTION = "wheel-minus-spoke-construction"
SOURCE_PATH_JOIN_CONSTRUCTION = "path-join-construction"
SOURCE_STAR_JOIN_CONSTRUCTION = "star-join-construction"
SOURCE_CYCLE_JOIN_CONSTRUCTION = "cycle-join-construction"


@dataclass(frozen=True)
class DeficiencyBounds:
    """lower <= deficiency <= upper (upper None = no construction known)."""

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


# Exact small-case deficiencies of the wheel minus a spoke.
_WHEEL_EXACT = {3: 0, 4: 0, 5: 1, 6: 1, 7: 1}


def family_bounds(d: FamilyDescriptor) -> DeficiencyBounds:
    """Best closed-form bounds for a join-family descriptor.

    Supported: wheel-minus-spoke (n >= 3), path-join (n >= 1, m >= 2),
    star-join (n >= 2, m >= 1), cycle-join (n >= 3, m >= 2).  Upper bounds
    are unknown for wheel-minus-spoke with n % 4 == 2, n >= 8, and for
    cycle joins with even n.
    """
    kind, n, m = d.kind, d.n, d.m
    if kind == "wheel-minus-spoke":
        if n in _WHEEL_EXACT:
            e = _WHEEL_EXACT[n]
            return DeficiencyBounds(e, e, SOURCE_SMALL_CASE, SOURCE_SMALL_CASE)
        lower = _counting_for(d)
        if n % 4 == 2:
            return DeficiencyBounds(lower, None, SOURCE_COUNTING, None)
        upper = (n - 3) // 2 if n % 2 == 1 else n // 2
        return DeficiencyBounds(lower, upper, SOURCE_COUNTING, SOURCE_WHEEL_CONSTRUCTION)

    if kind == "path-join":
        if m < 2:
            raise ValueError(f"path-join bounds cover m >= 2, got m={m}")
        if n in (1, 2):
            return DeficiencyBounds(0, 0, SOURCE_SMALL_CASE, SOURCE_SMALL_CASE)
        lower = _counting_for(d)
        if n == 4:
            return DeficiencyBounds(lower, m - 1, SOURCE_COUNTING, SOURCE_SMALL_CASE)
        if n == 6:
            return DeficiencyBounds(lower, 2 * (m - 1), SOURCE_COUNTING, SOURCE_SMALL_CASE)
        return DeficiencyBounds(
            lower, (n - 1) * (m - 1) - 1, SOURCE_COUNTING, SOURCE_PATH_JOIN_CONSTRUCTION
        )

    if kind == "star-join":
        if n < 2:
            raise ValueError(f"star-join bounds cover n >= 2, got n={n}")
        if m == 1:
            return DeficiencyBounds(0, 0, SOURCE_SMALL_CASE, SOURCE_SMALL_CASE)
        lower = _counting_for(d)
        return DeficiencyBounds(
            lower, n * (m - 1) - 1, SOURCE_COUNTING, SOURCE_STAR_JOIN_CONSTRUCTION
        )

    if kind == "cycle-join":
        if m < 2:
            raise ValueError(f"cycle-join bounds cover m >= 2, got m={m}")
        lower = _counting_for(d)
        if n % 2 == 0:
            return DeficiencyBounds(lower, None, SOURCE_COUNTING, None)
        return DeficiencyBounds(
            lower, m * n - (n + m) + 1, SOURCE_COUNTING, SOURCE_CYCLE_JOIN_CONSTRUCTION
        )

    raise ValueError(f"no closed-form deficiency bounds for family {kind!r}")


def check_bound_identities(n_max: int, m_max: int) -> tuple[str, int, int] | None:
    """Confirm the per-family lower-bound formulas equal the counting bound.

    For all 3 <= n <= n_max, 2 <= m <= m_max checks
      path join:   ceil((n-2)(m-1)/2)        == counting(n+m,   n(m+1)-1)
      star join:   ceil((n-1)(m-1)/2)        == counting(n+m+1, (n+1)(m+1)-1)
      cycle join:  floor((m+1)n/2)-(n+m)+2   == counting(n+m,   n(m+1))
    Returns the first mismatch as (family, n, m), or None if all agree.
    """
    for n in range(3, n_max + 1):
        for m in range(2, m_max + 1):
            if counting_lower_bound(n + m, n * (m + 1) - 1) != -(-((n - 2) * (m - 1)) // 2):
                return ("path-join", n, m)
            if counting_lower_bound(n + m + 1, (n + 1) * (m + 1) - 1) != -(-((n - 1) * (m - 1)) // 2):
                return ("star-join", n, m)
            if counting_lower_bound(n + m, n * (m + 1)) != (m + 1) * n // 2 - (n + m) + 2:
                return ("cycle-join", n, m)
    return None
