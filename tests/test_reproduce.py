import ast
import json
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import pytest

from semdef import bounds, constructions
from semdef.constructions import ERRATA, filler_row
from semdef.manifest import CLAIMS, claim_ids, groups
from semdef import reproduce


def test_claim_ids_unique():
    ids = claim_ids()
    assert len(ids) == len(set(ids))


def test_every_claim_has_a_runner():
    from semdef.reproduce import _RUNNERS

    for claim in CLAIMS:
        assert claim.kind in _RUNNERS, claim.id


def test_every_runner_has_a_claim():
    assert set(reproduce._RUNNERS) == {c.kind for c in CLAIMS}


def test_only_cases_reads_the_case_keys():
    case_keys = {"n", "m", "cases"}
    tree = ast.parse(Path(reproduce.__file__).read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name != "_cases":
            keys = {c.value for c in ast.walk(fn) if isinstance(c, ast.Constant)}
            assert not keys & case_keys, fn.name


def test_groups_cover_expected_topics():
    assert groups() == [
        "wheel-minus-spoke",
        "path-join",
        "star-join",
        "cycle-join",
        "general-join",
        "bounds",
        "errata",
        "magic-constants",
        "open-problems",
    ]


def test_selection_by_group_and_id():
    rep = reproduce.run(selection={"errata"})
    assert [e.claim.group for e in rep.entries] == ["errata"] * 4
    assert all(e.status == "errata-pass" for e in rep.entries)
    assert all(e.errata for e in rep.entries)  # each names its tag
    rep = reproduce.run(selection={"bound-identities"})
    assert len(rep.entries) == 1
    assert rep.entries[0].status == "pass"


def test_unknown_selector_is_rejected_before_any_claim_runs(monkeypatch):
    # with no runners, running any claim would raise KeyError instead
    monkeypatch.setattr(reproduce, "_RUNNERS", {})
    with pytest.raises(ValueError, match=r"selection \['bogus', 'erata'\]$"):
        reproduce.run(selection={"errata", "erata", "bogus", "bound-identities"})


def test_open_problems_reported_open_not_failed():
    rep = reproduce.run(selection={"open-problems"})
    assert len(rep.entries) == 4
    assert all(e.status == "open" for e in rep.entries)
    assert not rep.failed
    # the smallest even cycle join carries exploration data
    even = next(e for e in rep.entries if e.claim.id == "open-cycle-join-even")
    assert "deficiency > 6" in even.details


def test_report_serialization():
    rep = reproduce.run(selection={"magic-constants"})
    data = reproduce.report_json_dict(rep, generated_at="fixed")
    assert data["schema"] == "semdef/1"
    assert data["generated_at"] == "fixed"
    assert data["summary"]["total"] == len(rep.entries)
    md = reproduce.report_markdown(rep)
    assert "| claim | group | status |" in md
    for e in rep.entries:
        assert e.claim.id in md


def test_failures_recorded_not_raised(monkeypatch):
    from semdef import reproduce as rep_mod

    def boom(params, built):
        raise AssertionError("synthetic failure")

    monkeypatch.setitem(rep_mod._RUNNERS, "bound-identities", boom)
    rep = rep_mod.run(selection={"bounds"})
    entry = next(e for e in rep.entries if e.claim.id == "bound-identities")
    assert entry.status == "fail"
    assert "synthetic failure" in entry.details
    assert rep.failed


def _patch_claim(mp, claim_id, params=None, **fields):
    """Make run() see claim_id with its params updated by params and its
    other fields replaced by fields."""
    def patched(c):
        return c._replace(params=MappingProxyType({**c.params, **(params or {})}), **fields)
    mp.setattr(reproduce, "CLAIMS", tuple(
        patched(c) if c.id == claim_id else c for c in reproduce.CLAIMS))


def _counting_off(module, delta):
    real = bounds.counting_lower_bound
    return lambda mp: mp.setattr(module, "counting_lower_bound", lambda p, q: real(p, q) + delta)


def _family_bounds(change):
    real = bounds.family_bounds
    return lambda mp: mp.setattr(reproduce, "family_bounds", lambda d: change(real(d)))


def _erratum_demo(change):
    real = constructions.erratum_demo
    return lambda mp: mp.setattr(constructions, "erratum_demo", lambda tag: change(real(tag)))


def _star_certificates(change):
    construct, *rest = constructions.CONSTRUCTIONS["star-join"]

    def changed(n, m):
        r = construct(n, m)
        return r._replace(certificate=change(r.certificate))
    return lambda mp: mp.setitem(constructions.CONSTRUCTIONS, "star-join", (changed, *rest))


# One real claim per failure branch of a runner, with one input made false.
FAILING_RUNNERS = [
    ("path-join-special-constructions", _counting_off(reproduce, 1),
     "n=4, m=2: filler count above the counting bound"),
    ("general-join-constructions",
     lambda mp: mp.setattr(reproduce, "find_sem", lambda g, t: SimpleNamespace(witness=None)),
     "base path n=2 unexpectedly has no SEM labeling"),
    ("path-join-p4-m3-exact", lambda mp: _patch_claim(mp, "path-join-p4-m3-exact",
                                                      params={"expect": 3}),
     "(n=4, m=3): deficiency 2 (cap 4), expected 3"),
    ("wms-not-sem-n5", lambda mp: _patch_claim(mp, "wms-not-sem-n5", params={"t": 1}),
     "(n=5, m=None): unexpected witness (1, 7, 3, 6, 2, 4)"),
    ("cycle-join-counting-infeasible", _counting_off(reproduce, 1),
     "(n=3, m=2): t=1 not excluded by counting"),
    ("cycle-join-counting-infeasible", _counting_off(reproduce, -1),
     "(n=3, m=2): lower bound 0 < 1"),
    ("bound-identities", _counting_off(bounds, 1), "first mismatch at ('path-join', 3, 2)"),
    ("bounds-consistency", _family_bounds(lambda b: b._replace(upper=b.upper + 1)),
     "FamilyDescriptor(kind='wheel-minus-spoke', n=3, m=None): upper 1 != construction fillers 0"),
    ("bounds-consistency", _family_bounds(lambda b: b._replace(lower=b.upper + 1)),
     "FamilyDescriptor(kind='wheel-minus-spoke', n=3, m=None): lower 1 > upper 0"),
    ("erratum-star-join-center-label",
     _erratum_demo(lambda d: d._replace(rejected_labeling=d.corrected.certificate.labeling)),
     "the uncorrected labeling unexpectedly verifies"),
    ("erratum-star-join-center-label",
     _erratum_demo(lambda d: d._replace(expected_reason="label-out-of-range")),
     "rejected as duplicate-sum, documented label-out-of-range"),
    ("magic-p2-join", lambda mp: mp.setitem(reproduce._MAGIC_FORMULAS, "3m+6",
                                            lambda n, m: 3 * m + 7),
     "(n=2, m=2): k=12, formula gives 13"),
    ("magic-star-multi-mismatch",
     _star_certificates(lambda c: c._replace(magic_constant=c.min_edge_sum + c.graph.q - 1)),
     "(n=2, m=2): no discrepancy after all"),
    ("magic-star-multi-mismatch",
     _star_certificates(lambda c: c._replace(min_edge_sum=c.min_edge_sum + 1)),
     "(n=2, m=2): stated constant 10 is not the top sum 11"),
]


def test_failing_runners_cover_every_runner_that_asserts():
    kinds = {c.id: c.kind for c in CLAIMS}
    assert {kinds[cid] for cid, _, _ in FAILING_RUNNERS} == (
        set(reproduce._RUNNERS) - {"construct-grid", "open-problem"})


@pytest.mark.parametrize("claim_id, patch, message", FAILING_RUNNERS)
def test_each_runner_reports_fail(monkeypatch, claim_id, patch, message):
    patch(monkeypatch)
    (entry,) = reproduce.run(selection={claim_id}).entries
    assert (entry.status, entry.details, entry.errata) == ("fail", message, ())


def test_open_problem_reports_an_exhaustive_deficiency(monkeypatch):
    _patch_claim(monkeypatch, "open-star-join-exact", params={"cases": ((5, 3),), "cap": 5})
    (entry,) = reproduce.run(selection={"open-star-join-exact"}).entries
    assert (entry.status, entry.details) == (
        "open", "n=5, m=3: 4 <= deficiency <= 9; exhaustive search: deficiency = 5")


def test_open_status_follows_the_kind_not_the_group(monkeypatch):
    _patch_claim(monkeypatch, "open-star-join-exact", group="star-join")
    _patch_claim(monkeypatch, "star-join-k12-m2-exact", group="open-problems")
    rep = reproduce.run(selection={"open-star-join-exact", "star-join-k12-m2-exact"})
    assert {e.claim.id: (e.claim.group, e.status) for e in rep.entries} == {
        "star-join-k12-m2-exact": ("open-problems", "pass"),
        "open-star-join-exact": ("star-join", "open"),
    }


# The details of every solver claim, byte for byte: a runner change must not move them.
SOLVER_DETAILS = {
    "wms-deficiency-n3": "deficiency 0; witness (2, 3, 1, 4)",
    "wms-deficiency-n4": "deficiency 0; witness (2, 3, 1, 4, 5)",
    "wms-deficiency-n5": "deficiency 1; witness (1, 7, 3, 6, 2, 4)",
    "wms-deficiency-n6": "deficiency 1; witness (1, 4, 3, 2, 8, 5, 7)",
    "wms-deficiency-n7": "deficiency 1; witness (1, 9, 2, 3, 7, 5, 8, 6)",
    "wms-not-sem-n5": "exhausted all labelings into 1..6: none SEM",
    "wms-not-sem-n6": "exhausted all labelings into 1..7: none SEM",
    "wms-not-sem-n7": "exhausted all labelings into 1..8: none SEM",
    "wms-not-sem-n8": "exhausted all labelings into 1..9: none SEM",
    "path-join-p2-sem": "deficiency 0 for all 5 cases",
    "path-join-not-sem-m3": "no SEM labeling for n in 3..5",
    "path-join-p4-m3-exact": "deficiency 2; witness (2, 1, 9, 8, 3, 5, 7)",
    "path-join-p4-m4-exact": "deficiency 3; witness (2, 1, 11, 10, 3, 5, 7, 9)",
    "star-join-single-sem": "deficiency 0 for all 5 cases",
    "star-join-not-sem": "no SEM labeling in any of the 6 cases",
    "star-join-k12-m2-exact": "deficiency 1; witness (3, 1, 6, 4, 5)",
    "cycle-join-c3-m2-exact": "deficiency 2; witness (1, 4, 7, 2, 3)",
}


def test_solver_claim_details_are_pinned():
    assert [k for k in reproduce._RUNNERS if k.startswith("solver")] == ["solver"]
    rep = reproduce.run(selection={c.id for c in CLAIMS if c.kind == "solver"})
    assert all(e.status == "pass" for e in rep.entries)
    assert {e.claim.id: e.details for e in rep.entries} == SOLVER_DETAILS
    assert [e.claim.id for e in rep.entries] == list(SOLVER_DETAILS)


# The details of the construction, bounds-consistency and erratum claims,
# byte for byte: a change to the constructors or the coverage rule must not
# move them.
CONSTRUCT_DETAILS = {
    "wms-small-constructions": "5/5 small cases verified",
    "wms-general-constructions": "9 cases verified (n % 4 == 2 skipped: open)",
    "path-join-constructions": "50 (n, m) cases verified",
    "path-join-special-constructions": "14 special cases meet their counting bounds",
    "star-join-constructions": "54 (n, m) cases verified",
    "cycle-join-constructions": "30 (n, m) cases verified",
    "general-join-constructions": "60 (base, m) cases verified",
    "bounds-consistency": "148 descriptors consistent with their constructions",
    "erratum-cycle-join-even-position": (
        "uncorrected labeling rejected (label-out-of-range); "
        "corrected verifies with 4 fillers"
    ),
    "erratum-star-join-center-label": (
        "uncorrected labeling rejected (duplicate-sum); "
        "corrected verifies with 0 fillers"
    ),
    "erratum-path6-v-list": (
        "uncorrected labeling rejected (duplicate-label); "
        "corrected verifies with 10 fillers"
    ),
    "erratum-wheel-odd-index-ranges": (
        "uncorrected labeling rejected (label-out-of-range); "
        "corrected verifies with 3 fillers"
    ),
}


def test_construction_claim_details_are_pinned():
    rep = reproduce.run(selection=set(CONSTRUCT_DETAILS))
    assert all(e.status != "fail" for e in rep.entries)
    assert {e.claim.id: e.details for e in rep.entries} == CONSTRUCT_DETAILS
    assert [e.claim.id for e in rep.entries] == list(CONSTRUCT_DETAILS)


# The details of the claims pinned by neither table above, byte for byte.
OTHER_DETAILS = {
    "cycle-join-counting-infeasible": "40 cases excluded one filler below the bound",
    "bound-identities": "all identities agree up to n=50, m=50",
    "magic-p2-join": "magic constant 3m+6 confirmed in 7 cases",
    "magic-star-single": "magic constant 3n+6 confirmed in 7 cases",
    "magic-p4-join": "magic constant 6m+9 confirmed in 7 cases",
    "magic-path-general": "magic constant 2mn+floor((3n+2)/2) confirmed in 24 cases",
    "magic-star-multi-mismatch": (
        "in all 35 cases the stated constant equals the largest edge sum; "
        "certificates carry the recomputed magic constant"
    ),
    "open-wheel-2mod4": (
        "n=10: 0 <= deficiency <= unknown; n=14: 0 <= deficiency <= unknown; "
        "n=18: 0 <= deficiency <= unknown"
    ),
    "open-path-join-exact": "n=8, m=3: 6 <= deficiency <= 13; n=8, m=6: 15 <= deficiency <= 34",
    "open-star-join-exact": "n=5, m=3: 4 <= deficiency <= 9; n=5, m=6: 10 <= deficiency <= 24",
    "open-cycle-join-even": (
        "n=4, m=2: 2 <= deficiency <= unknown; exhaustive search: deficiency > 6"
    ),
}

# The status and errata tags of every claim that is not a plain pass.
NOT_PLAIN_PASS = {
    "wms-general-constructions": ("errata-pass", ("wheel-odd-index-ranges",)),
    "path-join-constructions": ("errata-pass", ("path6-join-v-list",)),
    "path-join-special-constructions": ("errata-pass", ("path6-join-v-list",)),
    "star-join-constructions": ("errata-pass", ("star-join-center-label",)),
    "cycle-join-constructions": ("errata-pass", ("cycle-join-even-position-formula",)),
    "erratum-cycle-join-even-position": ("errata-pass", ("cycle-join-even-position-formula",)),
    "erratum-star-join-center-label": ("errata-pass", ("star-join-center-label",)),
    "erratum-path6-v-list": ("errata-pass", ("path6-join-v-list",)),
    "erratum-wheel-odd-index-ranges": ("errata-pass", ("wheel-odd-index-ranges",)),
    "magic-star-multi-mismatch": ("errata-pass", ("star-join-magic-constant",)),
    "open-wheel-2mod4": ("open", ()),
    "open-path-join-exact": ("open", ()),
    "open-star-join-exact": ("open", ()),
    "open-cycle-join-even": ("open", ()),
}


def test_whole_report_is_pinned():
    rep = reproduce.run()
    details = {**SOLVER_DETAILS, **CONSTRUCT_DETAILS, **OTHER_DETAILS}
    assert len(details) == len(CLAIMS) == 40
    assert {e.claim.id: e.details for e in rep.entries} == details
    assert [e.claim.id for e in rep.entries] == claim_ids()
    assert {e.claim.id: (e.status, e.errata) for e in rep.entries} == {
        cid: NOT_PLAIN_PASS.get(cid, ("pass", ())) for cid in claim_ids()
    }
    # statements, groups and the layout too: the JSON report byte for byte
    assert _report_text(rep) == GOLDEN.read_text()


GOLDEN = Path(__file__).parent / "data" / "reproduce_report.json"


def _report_text(rep) -> str:
    return json.dumps(reproduce.report_json_dict(rep, generated_at=""), indent=2) + "\n"


def test_report_without_the_kernel_is_pinned(monkeypatch):
    # where the kernel cannot be built, every plan comes from solver._plan
    # and every search from _run_search, through the whole manifest; on a
    # machine with cc nothing else takes that path end to end
    from semdef import _kernel, solver

    plans, searches = [], []
    plan, search = solver._plan, solver._run_search
    monkeypatch.setattr(_kernel, "load", lambda: None)
    monkeypatch.setattr(solver, "_plan", lambda g: plans.append(g) or plan(g))
    monkeypatch.setattr(solver, "_run_search", lambda *args: searches.append(args) or search(*args))
    assert _report_text(reproduce.run()) == GOLDEN.read_text()
    assert len(plans) > 20 and len(searches) >= len(plans)


def _bench_constants() -> dict:
    """The module-level literal assignments of bench/run.py, read without
    importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "run.py").read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except (AttributeError, ValueError):
                pass
    return out


def test_bench_reads_the_manifest_it_is_given():
    # the benchmark sums per-kind seconds by each kind's first word and
    # checks the report's claim count; a renamed kind or a new claim must
    # show up here, not only in a traced benchmark run
    bench = _bench_constants()
    assert bench["MANIFEST_CLAIMS"] == len(CLAIMS)
    for claim in CLAIMS:
        assert claim.kind.split("-")[0] in bench["KIND_CLASSES"], claim.id


def test_traced_bench_run_succeeds():
    # the traced run is what measures the per-layer figures; it fails as a
    # whole when a layer it times goes missing, e.g. the find_sem spans of
    # reproduce whose median it reports
    root = Path(__file__).parents[1]
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve", "--trace", "1",
                           "--seed", "1"], cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["metrics"]["solver.calls"]["value"] > 0


def test_bounds_consistency_rechecks_the_construction_claims():
    grids = [c.params for c in CLAIMS if c.kind == "construct-grid"]
    sizes = [
        sum(filler_row(g["family"], n, m) is not None for n, m in reproduce._cases(g))
        for g in grids
    ]
    assert sizes == [5, 9, 50, 54, 30]
    (entry,) = reproduce.run(selection={"bounds-consistency"}).entries
    assert entry.details == f"{sum(sizes)} descriptors consistent with their constructions"
    assert sum(sizes) == 148


def test_a_run_builds_each_construction_once(monkeypatch):
    # bounds-consistency and the magic-constant claims re-read the grids'
    # certificates; one run builds each (family, n, m) once
    from collections import Counter

    from semdef import constructions

    calls = Counter()
    table = dict(constructions.CONSTRUCTIONS)
    for family, (fn, *rest) in table.items():
        def counted(n, m, family=family, fn=fn):
            calls[family, n, m] += 1
            return fn(n, m)
        table[family] = (counted, *rest)
    monkeypatch.setattr(constructions, "CONSTRUCTIONS", table)
    rep = reproduce.run(selection={"bounds-consistency", *CONSTRUCT_DETAILS, "magic-constants"})
    assert not rep.failed
    assert len(calls) >= 148 and set(calls.values()) == {1}


def test_statements_name_their_cases():
    # a range edit that leaves stale prose fails here
    for claim in CLAIMS:
        numbers = {int(x) for x in re.findall(r"\d+", claim.statement)}
        for key in ("n", "m", "expect"):
            value = claim.params.get(key)
            if isinstance(value, range):  # both ends of a span
                value = (value[0], value[-1])
            values = value if isinstance(value, tuple) else [value]
            for x in values:
                assert x is None or x in numbers, (claim.id, key, x)


def test_every_correction_is_applied_by_a_construction_claim():
    # a correction added to the constructions needs an ERRATA demo, and the
    # other way round
    applied: set[str] = set()
    for claim in CLAIMS:
        if claim.kind in ("construct-grid", "construct-path-special"):
            for _ in reproduce._constructions(claim.params, applied, {}):
                pass
    assert applied == set(ERRATA)
