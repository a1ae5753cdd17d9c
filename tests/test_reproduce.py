import os
import subprocess
import sys

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

    def boom(params, threads):
        raise AssertionError("synthetic failure")

    monkeypatch.setitem(rep_mod._RUNNERS, "bound-identities", boom)
    rep = rep_mod.run(selection={"bounds"})
    entry = next(e for e in rep.entries if e.claim.id == "bound-identities")
    assert entry.status == "fail"
    assert "synthetic failure" in entry.details
    assert rep.failed


def test_parallel_runs_finish_and_match_serial():
    # A pool torn down while a worker held its result queue's lock used to
    # hang find_sem(threads > 1) now and then; run it often, under a timeout.
    code = """
import json
from semdef import reproduce

def report(threads):
    return json.dumps(reproduce.report_json_dict(reproduce.run(threads=threads), generated_at=""))

serial = report(1)
for i in range(10):
    assert report(2) == serial, f"run {i} differs from the serial report"
print("ok")
"""
    src = os.path.dirname(os.path.dirname(reproduce.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
