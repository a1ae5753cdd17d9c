"""Runners for the claim manifest, and the reproduction report they produce.

run() executes every selected claim in manifest order, never aborting on a
failure, and returns a ReproductionReport whose JSON form is byte-identical
across runs except for the generated_at timestamp.  Claim details therefore
carry only deterministic data (bounds, filler counts, witness labelings),
never wall times or node counts.
"""

from __future__ import annotations

import datetime as _dt
from typing import NamedTuple

from . import constructions as cons
from .bounds import check_bound_identities, counting_lower_bound, family_bounds
from .graphs import SCHEMA, FamilyDescriptor, family_size, make_family
from .labeling import Rejection, verify_sem
from .manifest import CLAIMS, Claim, claim_ids, groups
from .solver import deficiency, find_sem

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_ERRATA = "errata-pass"
STATUS_OPEN = "open"

# Not a formula correction: the stated star-join constant for m >= 2 names the
# largest edge sum; the certificate's magic constant is recomputed instead.
ERRATUM_STAR_MAGIC = "star-join-magic-constant"


class ClaimOutcome(NamedTuple):
    claim: Claim
    status: str
    details: str
    errata: tuple[str, ...] = ()


class ReproductionReport(NamedTuple):
    entries: tuple[ClaimOutcome, ...]

    def summary(self) -> dict:
        counts = {STATUS_PASS: 0, STATUS_ERRATA: 0, STATUS_FAIL: 0, STATUS_OPEN: 0}
        for e in self.entries:
            counts[e.status] += 1
        counts["total"] = len(self.entries)
        return counts

    @property
    def failed(self) -> bool:
        return any(e.status == STATUS_FAIL for e in self.entries)


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

_MAGIC_FORMULAS = {
    "3m+6": lambda n, m: 3 * m + 6,
    "3n+6": lambda n, m: 3 * n + 6,
    "6m+9": lambda n, m: 6 * m + 9,
    "2mn+floor((3n+2)/2)": lambda n, m: 2 * m * n + (3 * n + 2) // 2,
}


def _cases(params) -> list[tuple[int | None, int | None]]:
    """The (n, m) cases of a claim: its explicit cases, or every n value with
    every m value, n-major (None where the key is absent)."""
    if "cases" in params:
        return list(params["cases"])
    n_values, m_values = (
        v if isinstance(v, (tuple, range)) else [v] for v in (params.get("n"), params.get("m"))
    )
    return [(n, m) for n in n_values for m in m_values]


def _constructions(params, errata: set[str], built: dict):
    """Yield (n, m, result) for each case of the claim where its family has
    a construction; the errata applied go into errata.  built holds the
    results constructed so far in this run, by (family, n, m), so claims
    that share a case build it once."""
    family = params["family"]
    for n, m in _cases(params):
        if cons.filler_row(family, n, m) is None:
            continue
        key = (family, n, m)
        if key not in built:
            built[key] = cons.CONSTRUCTIONS[family][0](n, m)
        r = built[key]
        errata.update(r.errata_applied)
        yield n, m, r


# ---------------------------------------------------------------------------
# Claim runners (one per manifest kind), each called with the claim's params
# and the run's construction results (see _constructions)
# ---------------------------------------------------------------------------

def _run_construct_grid(params, built):
    errata: set[str] = set()
    verified = sum(1 for _ in _constructions(params, errata, built))
    return params["details"].format(verified=verified, cases=len(_cases(params))), errata


def _run_construct_path_special(params, built):
    errata: set[str] = set()
    count = 0
    for n, m, r in _constructions(params, errata, built):
        g = r.certificate.graph
        if counting_lower_bound(g.vertex_count, g.q) != r.claimed_isolated:
            raise AssertionError(f"n={n}, m={m}: filler count above the counting bound")
        count += 1
    return f"{count} special cases meet their counting bounds", errata


def _run_construct_general_grid(params, built):
    errata: set[str] = set()
    count = 0
    for kind, n in params["bases"]:
        base = find_sem(make_family(FamilyDescriptor(kind, n=n)), 0).witness
        if base is None:
            raise AssertionError(f"base {kind} n={n} unexpectedly has no SEM labeling")
        for _, m in _cases(params):
            errata.update(cons.construct_general_join(base, m).errata_applied)
            count += 1
    return f"{count} (base, m) cases verified", errata


def _run_solver(params, built):
    """A claim with cap and expect asserts each case's exact deficiency; one
    with t asserts that no case has a SEM labeling with t fillers."""
    cases = _cases(params)
    for n, m in cases:
        g = make_family(FamilyDescriptor(params["family"], n=n, m=m))
        where = f"(n={n}, m={m}): "
        if "expect" in params:
            out = deficiency(g, params["cap"])
            if out.deficiency != params["expect"]:
                raise AssertionError(
                    f"{where}deficiency {out.deficiency} (cap {params['cap']}), "
                    f"expected {params['expect']}"
                )
        else:
            res = find_sem(g, params["t"])
            if res.witness is not None:
                raise AssertionError(f"{where}unexpected witness {res.witness.labeling.labels}")
    if "expect" in params:
        if len(cases) > 1:
            return f"deficiency {params['expect']} for all {len(cases)} cases", set()
        return f"deficiency {out.deficiency}; witness {out.witness.labeling.labels}", set()
    if len(cases) == 1:
        return f"exhausted all labelings into 1..{res.total_labels}: none SEM", set()
    if len({m for _, m in cases}) > 1:
        return f"no SEM labeling in any of the {len(cases)} cases", set()
    return f"no SEM labeling for n in {cases[0][0]}..{cases[-1][0]}", set()


def _run_counting_infeasible(params, built):
    cases = _cases(params)
    for n, m in cases:
        p, q = family_size(FamilyDescriptor(params["family"], n=n, m=m))
        lower = counting_lower_bound(p, q)
        if lower < 1:
            raise AssertionError(f"(n={n}, m={m}): lower bound {lower} < 1")
        t = lower - 1
        if not q > 2 * (p + t) - 3:
            raise AssertionError(f"(n={n}, m={m}): t={t} not excluded by counting")
    return f"{len(cases)} cases excluded one filler below the bound", set()


def _run_bound_identities(params, built):
    ((n, m),) = _cases(params)
    mismatch = check_bound_identities(n, m)
    if mismatch is not None:
        raise AssertionError(f"first mismatch at {mismatch}")
    return f"all identities agree up to n={n}, m={m}", set()


def _run_bounds_consistency(params, built):
    checked = 0
    for grid in (c.params for c in CLAIMS if c.kind == "construct-grid"):
        for n, m, r in _constructions(grid, set(), built):
            d = FamilyDescriptor(grid["family"], n=n, m=m)
            b = family_bounds(d)
            if b.upper != r.certificate.isolated:
                raise AssertionError(
                    f"{d}: upper {b.upper} != construction fillers {r.certificate.isolated}"
                )
            if b.lower > b.upper:
                raise AssertionError(f"{d}: lower {b.lower} > upper {b.upper}")
            checked += 1
    return f"{checked} descriptors consistent with their constructions", set()


def _run_erratum_demo(params, built):
    demo = cons.erratum_demo(params["tag"])
    rej = verify_sem(demo.graph, demo.rejected_labeling)
    if not isinstance(rej, Rejection):
        raise AssertionError("the uncorrected labeling unexpectedly verifies")
    if rej.reason != demo.expected_reason:
        raise AssertionError(f"rejected as {rej.reason}, documented {demo.expected_reason}")
    return (
        f"uncorrected labeling rejected ({rej.reason}); corrected verifies "
        f"with {demo.corrected.claimed_isolated} fillers",
        {demo.tag},
    )


def _run_magic_constant(params, built):
    formula = _MAGIC_FORMULAS[params["formula"]]
    count = 0
    for n, m, r in _constructions(params, set(), built):
        k = r.certificate.magic_constant
        if k != formula(n, m):
            raise AssertionError(f"(n={n}, m={m}): k={k}, formula gives {formula(n, m)}")
        count += 1
    return f"magic constant {params['formula']} confirmed in {count} cases", set()


def _run_magic_star_multi_mismatch(params, built):
    count = 0
    for n, m, r in _constructions(params, set(), built):
        cert = r.certificate
        stated = (n + 1) * (m + 1) + 1
        top_sum = cert.min_edge_sum + cert.graph.q - 1
        if cert.magic_constant == stated:
            raise AssertionError(f"(n={n}, m={m}): no discrepancy after all")
        if stated != top_sum:
            raise AssertionError(
                f"(n={n}, m={m}): stated constant {stated} is not the top sum {top_sum}"
            )
        count += 1
    return (
        f"in all {count} cases the stated constant equals the largest edge sum; "
        "certificates carry the recomputed magic constant",
        {ERRATUM_STAR_MAGIC},
    )


def _run_open_problem(params, built):
    family = params["family"]
    parts = []
    for n, m in _cases(params):
        d = FamilyDescriptor(family, n=n, m=m)
        b = family_bounds(d)
        label = f"n={n}" if m is None else f"n={n}, m={m}"
        upper = "unknown" if b.upper is None else b.upper
        parts.append(f"{label}: {b.lower} <= deficiency <= {upper}")
        if "cap" in params:
            out = deficiency(make_family(d), params["cap"])
            if out.deficiency is None:
                parts.append(f"exhaustive search: deficiency > {params['cap']}")
            else:
                parts.append(f"exhaustive search: deficiency = {out.deficiency}")
    return "; ".join(parts), set()


_RUNNERS = {
    "construct-grid": _run_construct_grid,
    "construct-path-special": _run_construct_path_special,
    "construct-general-grid": _run_construct_general_grid,
    "solver": _run_solver,
    "counting-infeasible": _run_counting_infeasible,
    "bound-identities": _run_bound_identities,
    "bounds-consistency": _run_bounds_consistency,
    "erratum-demo": _run_erratum_demo,
    "magic-constant": _run_magic_constant,
    "magic-star-multi-mismatch": _run_magic_star_multi_mismatch,
    "open-problem": _run_open_problem,
}


def run(selection=None) -> ReproductionReport:
    """Run the selected claims (by group or id; None = all) in manifest order.

    Raises ValueError, before any claim runs, when a selector names neither
    a group nor a claim id."""
    wanted = set(selection) if selection else None
    unknown = sorted(wanted.difference(groups(), claim_ids())) if wanted else []
    if unknown:
        raise ValueError(f"no claim group or id matches selection {unknown}")
    entries = []
    built: dict = {}
    for claim in CLAIMS:
        if wanted is not None and claim.group not in wanted and claim.id not in wanted:
            continue
        runner = _RUNNERS[claim.kind]
        try:
            details, errata = runner(claim.params, built)
        except Exception as exc:  # record, never abort the run
            entries.append(ClaimOutcome(claim, STATUS_FAIL, f"{exc}", ()))
            continue
        if claim.kind == "open-problem":
            status = STATUS_OPEN
        elif errata:
            status = STATUS_ERRATA
        else:
            status = STATUS_PASS
        entries.append(ClaimOutcome(claim, status, details, tuple(sorted(errata))))
    return ReproductionReport(tuple(entries))


def report_json_dict(report: ReproductionReport, generated_at: str | None = None) -> dict:
    if generated_at is None:
        generated_at = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return {
        "schema": SCHEMA,
        "generated_at": generated_at,
        "entries": [
            {
                "id": e.claim.id,
                "group": e.claim.group,
                "statement": e.claim.statement,
                "status": e.status,
                "details": e.details,
                "errata": list(e.errata),
            }
            for e in report.entries
        ],
        "summary": report.summary(),
    }


def report_markdown(report: ReproductionReport) -> str:
    lines = [
        "# Reproduction report",
        "",
        "| claim | group | status | details |",
        "| --- | --- | --- | --- |",
    ]
    for e in report.entries:
        details = e.details.replace("|", "\\|")
        if e.errata:
            details += f" [errata: {', '.join(e.errata)}]"
        lines.append(f"| {e.claim.id} | {e.claim.group} | {e.status} | {details} |")
    s = report.summary()
    lines += [
        "",
        f"**{s['total']} claims: {s['pass']} pass, {s['errata-pass']} errata-pass, "
        f"{s['fail']} fail, {s['open']} open.**",
        "",
    ]
    return "\n".join(lines)
