"""The claim manifest: every machine-checkable result this package reproduces.

Each claim is data (id, group, human statement, runner kind, parameters); the
runners live in the reproduce module.  Keeping the table declarative makes
coverage auditable by inspection, and the report preserves this order.

The parameters (reproduce._cases alone reads the case keys, n to cases):
  family                the graph family (graphs.FAMILY_KINDS) of the cases
  n / n_range / n_list  one n, an inclusive (lo, hi), or a list
  m / m_range           one m or an inclusive (lo, hi); the cases are every n
                        with every m, n-major, None for an n or m not given
  cases                 explicit (n, m) pairs instead
  details               a construct-grid report line; {verified} and {cases}
                        count the cases constructed and listed
  grids                 the construct-grid claims bounds-consistency re-checks
  bases                 (kind, n) general-join bases, each joined with every m
Keys of one runner only: cap, expect, t (searches), tag (erratum-demo) and
formula (magic-constant).

Statuses produced by the runners:
  pass         the claim holds as stated
  errata-pass  the claim holds after a documented formula correction
               (the entry names the applied tags)
  fail         the claim does not hold (a bug or a wrong expectation)
  open         no complete answer is known; the entry reports the best
               bounds/search data instead of asserting a value
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple


class Claim(NamedTuple):
    id: str
    group: str
    statement: str
    kind: str
    params: MappingProxyType = MappingProxyType({})


def _claim(id, group, statement, kind, **params):
    return Claim(id, group, statement, kind, MappingProxyType(params))


CLAIMS: tuple[Claim, ...] = (
    # ----------------------------------------------------------- wheel minus spoke
    _claim(
        "wms-small-constructions",
        "wheel-minus-spoke",
        "H_n (wheel minus one spoke) carries a verified SEM labeling with "
        "0 fillers for n=3,4 and 1 filler for n=5,6,7.",
        "construct-grid",
        family="wheel-minus-spoke",
        n_range=(3, 7),
        details="{verified}/{cases} small cases verified",
    ),
    _claim(
        "wms-general-constructions",
        "wheel-minus-spoke",
        "For 8 <= n <= 19 with n % 4 != 2, the H_n pattern labeling verifies "
        "with (n-3)/2 fillers for odd n and n/2 fillers for n % 4 == 0.",
        "construct-grid",
        family="wheel-minus-spoke",
        n_range=(8, 19),
        details="{verified} cases verified (n % 4 == 2 skipped: open)",
    ),
    _claim(
        "wms-deficiency-n3",
        "wheel-minus-spoke",
        "Exhaustive search: the deficiency of H_3 is exactly 0.",
        "solver",
        family="wheel-minus-spoke",
        n=3,
        cap=2,
        expect=0,
    ),
    _claim(
        "wms-deficiency-n4",
        "wheel-minus-spoke",
        "Exhaustive search: the deficiency of H_4 is exactly 0.",
        "solver",
        family="wheel-minus-spoke",
        n=4,
        cap=2,
        expect=0,
    ),
    _claim(
        "wms-deficiency-n5",
        "wheel-minus-spoke",
        "Exhaustive search: the deficiency of H_5 is exactly 1.",
        "solver",
        family="wheel-minus-spoke",
        n=5,
        cap=2,
        expect=1,
    ),
    _claim(
        "wms-deficiency-n6",
        "wheel-minus-spoke",
        "Exhaustive search: the deficiency of H_6 is exactly 1.",
        "solver",
        family="wheel-minus-spoke",
        n=6,
        cap=2,
        expect=1,
    ),
    _claim(
        "wms-deficiency-n7",
        "wheel-minus-spoke",
        "Exhaustive search: the deficiency of H_7 is exactly 1.",
        "solver",
        family="wheel-minus-spoke",
        n=7,
        cap=2,
        expect=1,
    ),
    _claim(
        "wms-not-sem-n5",
        "wheel-minus-spoke",
        "H_5 has no SEM labeling without fillers (exhaustive).",
        "solver",
        family="wheel-minus-spoke",
        n=5,
        t=0,
    ),
    _claim(
        "wms-not-sem-n6",
        "wheel-minus-spoke",
        "H_6 has no SEM labeling without fillers (exhaustive).",
        "solver",
        family="wheel-minus-spoke",
        n=6,
        t=0,
    ),
    _claim(
        "wms-not-sem-n7",
        "wheel-minus-spoke",
        "H_7 has no SEM labeling without fillers (exhaustive).",
        "solver",
        family="wheel-minus-spoke",
        n=7,
        t=0,
    ),
    _claim(
        "wms-not-sem-n8",
        "wheel-minus-spoke",
        "H_8 has no SEM labeling without fillers (exhaustive).",
        "solver",
        family="wheel-minus-spoke",
        n=8,
        t=0,
    ),
    # ----------------------------------------------------------------- path joins
    _claim(
        "path-join-constructions",
        "path-join",
        "P_n + mK_1-join verifies for 1 <= n <= 10, 2 <= m <= 6 with fillers "
        "0 (n<=2), m-1 (n=4), 2(m-1) (n=6), else (n-1)(m-1)-1.",
        "construct-grid",
        family="path-join",
        n_range=(1, 10),
        m_range=(2, 6),
        details="{verified} (n, m) cases verified",
    ),
    _claim(
        "path-join-special-constructions",
        "path-join",
        "The P_4 and P_6 join labelings meet their counting lower bounds "
        "(m-1 and 2(m-1) fillers) for every m <= 8.",
        "construct-path-special",
        family="path-join",
        n_list=(4, 6),
        m_range=(2, 8),
    ),
    _claim(
        "path-join-p2-sem",
        "path-join",
        "P_2 joined with m independent vertices is SEM (deficiency 0) for "
        "2 <= m <= 6 (exhaustive).",
        "solver",
        family="path-join",
        n=2,
        m_range=(2, 6),
        cap=0,
        expect=0,
    ),
    _claim(
        "path-join-not-sem-m3",
        "path-join",
        "P_n joined with 3 independent vertices is not SEM for n = 3, 4, 5.",
        "solver",
        family="path-join",
        n_range=(3, 5),
        m=3,
        t=0,
    ),
    _claim(
        "path-join-p4-m3-exact",
        "path-join",
        "Exhaustive search: the deficiency of the P_4 + 3K_1 join is exactly "
        "2 = m-1.",
        "solver",
        family="path-join",
        n=4,
        m=3,
        cap=4,
        expect=2,
    ),
    _claim(
        "path-join-p4-m4-exact",
        "path-join",
        "Exhaustive search: the deficiency of the P_4 + 4K_1 join is exactly "
        "3 = m-1.",
        "solver",
        family="path-join",
        n=4,
        m=4,
        cap=4,
        expect=3,
    ),
    # ----------------------------------------------------------------- star joins
    _claim(
        "star-join-constructions",
        "star-join",
        "K_{1,n} + mK_1-join verifies for 2 <= n <= 10, 1 <= m <= 6 with "
        "fillers 0 (m=1), else n(m-1)-1.",
        "construct-grid",
        family="star-join",
        n_range=(2, 10),
        m_range=(1, 6),
        details="{verified} (n, m) cases verified",
    ),
    _claim(
        "star-join-single-sem",
        "star-join",
        "K_{1,n} joined with one vertex is SEM (deficiency 0) for 2 <= n <= 6 "
        "(exhaustive).",
        "solver",
        family="star-join",
        n_range=(2, 6),
        m=1,
        cap=0,
        expect=0,
    ),
    _claim(
        "star-join-not-sem",
        "star-join",
        "K_{1,n} joined with m independent vertices is not SEM for "
        "2 <= n <= 4 and m = 2, 3.",
        "solver",
        family="star-join",
        n_range=(2, 4),
        m_range=(2, 3),
        t=0,
    ),
    _claim(
        "star-join-k12-m2-exact",
        "star-join",
        "Exhaustive search: the deficiency of the K_{1,2} + 2K_1 join is "
        "exactly 1 (its lower and upper bounds coincide).",
        "solver",
        family="star-join",
        n=2,
        m=2,
        cap=2,
        expect=1,
    ),
    # ---------------------------------------------------------------- cycle joins
    _claim(
        "cycle-join-constructions",
        "cycle-join",
        "C_n + mK_1-join verifies for odd 3 <= n <= 13, 2 <= m <= 6 with "
        "mn-(n+m)+1 fillers.",
        "construct-grid",
        family="cycle-join",
        n_range=(3, 13),
        m_range=(2, 6),
        details="{verified} (n, m) cases verified",
    ),
    _claim(
        "cycle-join-counting-infeasible",
        "cycle-join",
        "One filler below the counting bound, C_n + mK_1-join has too many "
        "edges to be SEM (q > 2p-3), for 3 <= n <= 10, 2 <= m <= 6.",
        "counting-infeasible",
        family="cycle-join",
        n_range=(3, 10),
        m_range=(2, 6),
    ),
    _claim(
        "cycle-join-c3-m2-exact",
        "cycle-join",
        "Exhaustive search: the deficiency of the C_3 + 2K_1 join is exactly "
        "2, matching the construction bound (counting gives only 1).",
        "solver",
        family="cycle-join",
        n=3,
        m=2,
        cap=2,
        expect=2,
    ),
    # --------------------------------------------------------------- generic join
    _claim(
        "general-join-constructions",
        "general-join",
        "Joining a SEM base (paths P_2..P_6, stars K_{1,2}..K_{1,5}, odd "
        "cycles C_3, C_5, C_7; witnesses from the solver) with m <= 5 "
        "independent vertices verifies with s+(m-2)p-m fillers, s the base's "
        "largest edge sum.",
        "construct-general-grid",
        bases=(("path", 2), ("path", 3), ("path", 4), ("path", 5), ("path", 6), ("star", 2),
               ("star", 3), ("star", 4), ("star", 5), ("cycle", 3), ("cycle", 5), ("cycle", 7)),
        m_range=(1, 5),
    ),
    # --------------------------------------------------------------------- bounds
    _claim(
        "bound-identities",
        "bounds",
        "The counting bound max(0, ceil((q+3)/2)-p) equals the per-family "
        "lower-bound formulas for path, star, and cycle joins over all "
        "3 <= n <= 50, 2 <= m <= 50.",
        "bound-identities",
        n_range=(3, 50),
        m_range=(2, 50),
    ),
    _claim(
        "bounds-consistency",
        "bounds",
        "Over the construction grids, every family upper bound equals the "
        "construction's filler count and never falls below the lower bound.",
        "bounds-consistency",
        grids=(
            "wms-small-constructions",
            "wms-general-constructions",
            "path-join-constructions",
            "star-join-constructions",
            "cycle-join-constructions",
        ),
    ),
    # --------------------------------------------------------------------- errata
    _claim(
        "erratum-cycle-join-even-position",
        "errata",
        "The stated even-rim-position label formula for cycle joins leaves "
        "the label range (rejected); the linear correction verifies.",
        "erratum-demo",
        tag="cycle-join-even-position-formula",
    ),
    _claim(
        "erratum-star-join-center-label",
        "errata",
        "The stated single-vertex star-join labeling duplicates edge sums "
        "(rejected); relabeling the center to 1 verifies.",
        "erratum-demo",
        tag="star-join-center-label",
    ),
    _claim(
        "erratum-path6-v-list",
        "errata",
        "The stated P_6-join v-list is not an arithmetic progression and "
        "repeats labels (rejected); v_j = 3j+1 verifies.",
        "erratum-demo",
        tag="path6-join-v-list",
    ),
    _claim(
        "erratum-wheel-odd-index-ranges",
        "errata",
        "The stated odd-n H_n index ranges leave rim vertices unlabeled "
        "(rejected); extending both ranges to 1..n verifies.",
        "erratum-demo",
        tag="wheel-odd-index-ranges",
    ),
    # ------------------------------------------------------------ magic constants
    _claim(
        "magic-p2-join",
        "magic-constants",
        "The P_2 + mK_1-join certificate has magic constant 3m+6 for "
        "2 <= m <= 8.",
        "magic-constant",
        family="path-join",
        n=2,
        m_range=(2, 8),
        formula="3m+6",
    ),
    _claim(
        "magic-star-single",
        "magic-constants",
        "The K_{1,n} + 1K_1-join certificate has magic constant 3n+6 for "
        "2 <= n <= 8.",
        "magic-constant",
        family="star-join",
        n_range=(2, 8),
        m=1,
        formula="3n+6",
    ),
    _claim(
        "magic-p4-join",
        "magic-constants",
        "The P_4 + mK_1-join certificate has magic constant 6m+9 for "
        "2 <= m <= 8.",
        "magic-constant",
        family="path-join",
        n=4,
        m_range=(2, 8),
        formula="6m+9",
    ),
    _claim(
        "magic-path-general",
        "magic-constants",
        "The generic path-join certificate has magic constant "
        "2mn + floor((3n+2)/2) for n in {3,5,7,8,9,10}, 3 <= m <= 6.",
        "magic-constant",
        family="path-join",
        n_list=(3, 5, 7, 8, 9, 10),
        m_range=(3, 6),
        formula="2mn+floor((3n+2)/2)",
    ),
    _claim(
        "magic-star-multi-mismatch",
        "magic-constants",
        "For star joins with m >= 2 the stated constant (n+1)(m+1)+1 is the "
        "largest edge sum, not the magic constant (which is (n+1)(2m+1)+2); "
        "the labeling itself verifies.  Checked for 2 <= n <= 8, 2 <= m <= 6.",
        "magic-star-multi-mismatch",
        family="star-join",
        n_range=(2, 8),
        m_range=(2, 6),
    ),
    # -------------------------------------------------------------- open problems
    _claim(
        "open-wheel-2mod4",
        "open-problems",
        "No filler-count bound is known for H_n with n % 4 == 2, n >= 8 "
        "(smallest case n = 10).",
        "open-problem",
        family="wheel-minus-spoke",
        cases=((10, None), (14, None), (18, None)),
    ),
    _claim(
        "open-path-join-exact",
        "open-problems",
        "Exact path-join deficiencies are unknown beyond n = 4, 6; the "
        "closed-form bounds still leave a gap (sample n = 8).",
        "open-problem",
        family="path-join",
        cases=((8, 3), (8, 6)),
    ),
    _claim(
        "open-star-join-exact",
        "open-problems",
        "Exact star-join deficiencies for m >= 2 are unknown beyond "
        "coinciding-bound cases; the bounds leave a gap (sample n = 5).",
        "open-problem",
        family="star-join",
        cases=((5, 3), (5, 6)),
    ),
    _claim(
        "open-cycle-join-even",
        "open-problems",
        "No construction is known for even-cycle joins; exhaustive search "
        "shows the smallest case C_4 + 2K_1-join exceeds even its counting "
        "lower bound 2.",
        "open-problem",
        family="cycle-join",
        cases=((4, 2),),
        cap=6,
    ),
)


def claim_ids() -> list[str]:
    return [c.id for c in CLAIMS]


def groups() -> list[str]:
    seen: list[str] = []
    for c in CLAIMS:
        if c.group not in seen:
            seen.append(c.group)
    return seen
