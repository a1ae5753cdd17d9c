import pytest

from semdef.manifest import CLAIMS, claim_ids, groups
from semdef import reproduce


def test_claim_ids_unique():
    ids = claim_ids()
    assert len(ids) == len(set(ids))


def test_every_claim_has_a_runner():
    from semdef.reproduce import _RUNNERS

    for claim in CLAIMS:
        assert claim.kind in _RUNNERS, claim.id


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

    def boom(params):
        raise AssertionError("synthetic failure")

    monkeypatch.setitem(rep_mod._RUNNERS, "bound-identities", boom)
    rep = rep_mod.run(selection={"bounds"})
    entry = next(e for e in rep.entries if e.claim.id == "bound-identities")
    assert entry.status == "fail"
    assert "synthetic failure" in entry.details
    assert rep.failed


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
