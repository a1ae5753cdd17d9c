import io
import json
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdef import _kernel, _reference
from semdef.cli import main
from semdef.labeling import certificate_from_json_dict

# A filler-free SEM certificate of P_3: edge sums 4, 5.
BASE_CERT = {
    "schema": "semdef/1",
    "graph": {"schema": "semdef/1", "p": 3, "edges": [[0, 1], [1, 2]]},
    "labels": [1, 3, 2],
    "isolated": 0,
    "s": 4,
    "k": 9,
}


def run_cli(*argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_wheel_minus_spoke(capsys, tmp_path):
    out_path = tmp_path / "g.json"
    code, out, _ = run_cli(
        "gen", "--family", "wheel-minus-spoke", "-n", "5", "--json", str(out_path),
        capsys=capsys,
    )
    assert code == 0
    assert "p=6, q=9" in out
    data = json.loads(out_path.read_text())
    assert data["schema"] == "semdef/1"
    assert data["p"] == 6
    assert len(data["edges"]) == 9


def test_gen_mid_spoke_variant(capsys):
    code, out, _ = run_cli("gen", "--family", "wheel-minus-spoke", "-n", "8",
                           "--mid-spoke", "--json", "-", capsys=capsys)
    assert code == 0
    data = json.loads(out)  # stdout is pure JSON when it is the target
    assert [0, 4] not in data["edges"]
    assert [0, 1] in data["edges"]


def test_gen_without_json_prints_only_summary(capsys):
    code, out, err = run_cli("gen", "--family", "star", "-n", "3", capsys=capsys)
    assert code == 0
    assert out == "star: p=4, q=3\n"
    assert err == ""
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_gen_json_stdout_moves_summary_to_stderr(capsys):
    code, out, err = run_cli("gen", "--family", "star", "-n", "3", "--json", "-",
                             capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 4
    assert len(data["edges"]) == 3
    assert err == "star: p=4, q=3\n"


def test_construct_verify_round_trip(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        "construct", "--family", "star-join", "-n", "3", "-m", "1",
        "--json", str(cert_path), "--show-errata", capsys=capsys,
    )
    assert code == 0
    assert "k=15" in out
    assert "star-join-center-label" in out
    code, out, _ = run_cli("verify", "--cert", str(cert_path), capsys=capsys)
    assert code == 0
    assert out.startswith("OK")


def test_verify_rejects_tampered_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli("construct", "--family", "path-join", "-n", "4", "-m", "3",
            "--json", str(cert_path), capsys=capsys)
    data = json.loads(cert_path.read_text())
    data["labels"][0], data["labels"][1] = data["labels"][1], data["labels"][0]
    cert_path.write_text(json.dumps(data))
    code, _, err = run_cli("verify", "--cert", str(cert_path), capsys=capsys)
    assert code == 1
    assert "duplicate-sum" in err


def test_verify_rejects_stated_star_join_labeling(capsys, tmp_path):
    # the single-added-vertex star join with the center mislabeled n+1:
    # hand-written certificate, rejected for colliding edge sums
    cert_path = tmp_path / "cert.json"
    graph = {"schema": "semdef/1", "p": 5,
             "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 4], [2, 4], [3, 4]]}
    cert_path.write_text(json.dumps(
        {"schema": "semdef/1", "graph": graph, "labels": [4, 1, 2, 3, 5],
         "isolated": 0, "s": 5, "k": 24}))
    code, _, err = run_cli("verify", "--cert", str(cert_path), capsys=capsys)
    assert code == 1
    assert "duplicate-sum" in err


def test_verify_rejects_wrong_claimed_constant(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli("construct", "--family", "path-join", "-n", "2", "-m", "3",
            "--json", str(cert_path), capsys=capsys)
    data = json.loads(cert_path.read_text())
    data["k"] += 1
    cert_path.write_text(json.dumps(data))
    code, _, err = run_cli("verify", "--cert", str(cert_path), capsys=capsys)
    assert code == 1
    assert "claimed k" in err


@pytest.mark.parametrize("labels", [[1, 2], [1, 9]])
def test_wrong_label_count_is_a_usage_error(capsys, tmp_path, labels):
    # a 3-vertex certificate with 2 labels is malformed, whatever the labels
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({**BASE_CERT, "labels": labels}))
    code, _, err = run_cli("verify", "--cert", str(cert_path), capsys=capsys)
    assert code == 2
    assert "certificate has 2 labels for 3 vertices" in err


def test_verify_names_a_missing_graph_key(capsys, tmp_path):
    # a graph file passed as a certificate
    cert_path = tmp_path / "graph.json"
    cert_path.write_text(json.dumps(BASE_CERT["graph"]))
    code, out, err = run_cli("verify", "--cert", str(cert_path), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: certificate JSON has no 'graph' key\n"


def test_verify_graph_cross_check(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    graph_path = tmp_path / "g.json"
    run_cli("construct", "--family", "path-join", "-n", "2", "-m", "2",
            "--json", str(cert_path), capsys=capsys)
    run_cli("gen", "--family", "path-join", "-n", "2", "-m", "2",
            "--json", str(graph_path), capsys=capsys)
    code, _, _ = run_cli("verify", "--cert", str(cert_path),
                         "--graph", str(graph_path), capsys=capsys)
    assert code == 0
    run_cli("gen", "--family", "cycle", "-n", "4", "--json", str(graph_path),
            capsys=capsys)
    code, _, err = run_cli("verify", "--cert", str(cert_path),
                           "--graph", str(graph_path), capsys=capsys)
    assert code == 1
    assert "differs" in err


def test_construct_generic_join_from_base(capsys, tmp_path):
    base_path = tmp_path / "base.json"
    code, _, _ = run_cli("construct", "--family", "path-join", "-n", "2", "-m", "2",
                         "--json", str(base_path), capsys=capsys)
    assert code == 0
    # that base has fillers=0? path-join n=2 -> t=0, reusable as generic base
    code, out, _ = run_cli("construct", "--family", "generic-join", "-m", "2",
                           "--base", str(base_path), capsys=capsys)
    assert code == 0
    assert "fillers=" in out


def test_solve_exact_and_not_sem_exit_codes(capsys, tmp_path):
    graph_path = tmp_path / "g.json"
    out_path = tmp_path / "out.json"
    run_cli("gen", "--family", "wheel-minus-spoke", "-n", "5",
            "--json", str(graph_path), capsys=capsys)
    code, out, err = run_cli("solve", "--graph", str(graph_path), "--cap", "2",
                             "--json", str(out_path), capsys=capsys)
    assert code == 0
    assert "deficiency 1" in out
    assert "nodes=" in err
    payload = json.loads(out_path.read_text())
    assert payload["status"] == "exact"
    assert payload["deficiency"] == 1
    assert payload["certificate"]["isolated"] == 1

    run_cli("gen", "--family", "cycle-join", "-n", "4", "-m", "2",
            "--json", str(graph_path), capsys=capsys)
    code, out, _ = run_cli("solve", "--graph", str(graph_path), "--cap", "2",
                           "--json", str(out_path), capsys=capsys)
    assert code == 3
    assert "no SEM labeling" in out
    assert json.loads(out_path.read_text())["status"] == "not-sem-up-to"


def test_solve_limit_exit_code(capsys, tmp_path):
    graph_path = tmp_path / "g.json"
    run_cli("gen", "--family", "wheel-minus-spoke", "-n", "16",
            "--json", str(graph_path), capsys=capsys)
    code, out, err = run_cli("solve", "--graph", str(graph_path), "--cap", "2",
                             capsys=capsys)
    assert (code, out) == (4, "")
    assert err == "limit: search needs 17 labels, over --max-labels 16\n"


# One row per outcome of solve, where t0 is the counting bound, p the vertex
# count and L the --max-labels (default 16): t0 > cap exits 3 and p + t0 > L
# exits 4, both before any plan is built; otherwise t0..min(cap, L - p) are
# searched, and when they hold no witness, a cap past L - p exits 4, else 3.
@pytest.mark.parametrize("family, cap, extra, code, out, err", [
    (["wheel-minus-spoke", "-n", "9"], 10, [], 0,
     "deficiency 1; witness labels [2, 3, 1, 4, 10, 9, 8, 7, 11, 5], k=31\n",
     "stats: nodes=36661\n"),
    (["cycle-join", "-n", "10", "-m", "3"], 5, [], 3,
     "no SEM labeling with up to 5 fillers (exhaustive)\n", "stats: nodes=0\n"),
    (["path", "-n", "20"], 0, [], 4, "", "limit: search needs 20 labels, over --max-labels 16\n"),
    (["cycle-join", "-n", "10", "-m", "3"], 9, [], 4, "",
     "limit: search needs 22 labels, over --max-labels 16\n"),
    (["cycle-join", "-n", "4", "-m", "2"], 10, [], 3,
     "no SEM labeling with up to 10 fillers (exhaustive)\n", "stats: nodes=3878\n"),
    (["cycle-join", "-n", "4", "-m", "2"], 11, [], 4, "",
     "stats: nodes=3878\nlimit: search needs 17 labels, over --max-labels 16\n"),
    (["path-join", "-n", "8", "-m", "3"], 10, [], 4, "",
     "limit: search needs 17 labels, over --max-labels 16\n"),
    (["path-join", "-n", "8", "-m", "3"], 10, ["--max-labels", "20"], 0,
     "deficiency 8; witness labels [7, 2, 4, 1, 19, 16, 18, 13, 6, 10, 14], k=55\n",
     "stats: nodes=2301091\n"),
], ids=["h9-found", "c10-join-3-under-the-bound", "p20-over-the-limit",
        "c10-join-3-bound-over-the-limit", "c4-join-2-exhausted", "c4-join-2-stopped-by-the-limit",
        "p8-join-3-over-the-limit", "p8-join-3-under-a-raised-limit"])
def test_solve_outcome_table(capsys, tmp_path, monkeypatch, family, cap, extra, code, out, err):
    if extra and _kernel.load() is None:
        pytest.skip("the raised limit admits 2.3 million nodes, too many without the C kernel")
    graph_path = tmp_path / "g.json"
    run_cli("gen", "--family", *family, "--json", str(graph_path), capsys=capsys)
    if "nodes=" not in err or "nodes=0" in err:  # no search, so no plan from either builder
        monkeypatch.setattr(_kernel, "load", lambda: pytest.fail("solve loaded the kernel"))
        monkeypatch.setattr(_reference, "_solve", lambda *args: pytest.fail("solve built a search plan"))
    got = run_cli("solve", "--graph", str(graph_path), "--cap", str(cap), *extra, capsys=capsys)
    assert got[:2] == (code, out)
    assert re.sub(r" seconds=\S+ backend=\w+", "", got[2]) == err


def test_bounds_single_and_table(capsys):
    code, out, _ = run_cli("bounds", "--family", "cycle-join", "-n", "4", "-m", "2",
                           capsys=capsys)
    assert code == 0
    assert "lower: 2" in out
    assert "unknown (open)" in out
    code, out, _ = run_cli("bounds", "--family", "path-join", "-n", "4", "-m", "3",
                           capsys=capsys)
    assert code == 0
    assert out.splitlines()[-1] == "  exact: 2"
    code, out, _ = run_cli("bounds", "--family", "path-join", "--table", "csv",
                           "--n-max", "4", "--m-max", "3", capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,n,m,")
    assert "path-join,4,3,2,2," in out


@pytest.mark.parametrize("table, last", [
    ("md", "| 10 | - | 0 | unknown | counting | - |"),
    ("csv", "wheel-minus-spoke,10,,0,,counting,"),
])
def test_bounds_table_of_a_family_without_m(capsys, table, last):
    # a family with no m gets one row per n, the m column left empty; at
    # n = 10, 2 mod 4, no construction gives an upper bound
    code, out, _ = run_cli("bounds", "--family", "wheel-minus-spoke", "--table", table,
                           "--n-max", "10", capsys=capsys)
    assert code == 0
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("family", ["path", "generic-join"])
@pytest.mark.parametrize("table", ["md", "csv"])
def test_bounds_table_without_closed_form_is_a_usage_error(capsys, family, table):
    code, out, err = run_cli("bounds", "--family", family, "--table", table, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: no closed-form deficiency bounds for family {family!r}\n"


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "path", "-n", "3", "-m", "7"],
    ["construct", "--family", "wheel-minus-spoke", "-n", "5", "-m", "3"],
    ["bounds", "--family", "wheel-minus-spoke", "-n", "5", "-m", "3"],
])
def test_m_on_a_family_without_m_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: -m does not apply to --family {argv[2]}, which takes only -n\n"


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "generic-join", "-n", "5", "-m", "2"],
    ["construct", "--family", "generic-join", "-n", "5", "-m", "2", "--base", "base.json"],
    ["bounds", "--family", "generic-join", "-n", "5", "-m", "2"],
])
def test_n_on_a_family_without_n_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: -n does not apply to --family generic-join, which takes only -m\n"


@pytest.mark.parametrize("argv, message", [
    (["--family", "path-join", "-n", "3"], "construct --family path-join requires -m"),
    (["--family", "wheel-minus-spoke"], "construct --family wheel-minus-spoke requires -n"),
    (["--family", "path", "-n", "3"], "no construction for family 'path'"),
    # the only guard in front of construct_general_join(base, None)
    (["--family", "generic-join", "--base", "b.json"], "construct --family generic-join requires -m"),
    (["--family", "generic-join", "-m", "2"],
     "generic-join needs --base pointing at a SEM base certificate"),
    (["--family", "generic-join", "-m", "0", "--base", "b.json"],
     "generic join needs m >= 1, got 0"),
])
def test_construct_usage_errors(capsys, monkeypatch, tmp_path, argv, message):
    # b.json is a valid base: the P_2 certificate labelled 1, 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.json").write_text(json.dumps({
        "schema": "semdef/1", "graph": {"schema": "semdef/1", "p": 2, "edges": [[0, 1]]},
        "labels": [1, 2], "isolated": 0, "s": 3, "k": 6}))
    code, out, err = run_cli("construct", *argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_construct_generic_join_rejects_a_base_that_does_not_verify(capsys, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({**BASE_CERT, "labels": [1, 2, 3]}))  # edge sums 3 and 5
    code, out, err = run_cli("construct", "--family", "generic-join", "-m", "2",
                             "--base", str(base), capsys=capsys)
    assert (code, out) == (2, "")
    assert err == ("error: base certificate does not verify: sum-gap (2 distinct sums "
                   "span 3..5, not 2 consecutive integers)\n")


@pytest.mark.parametrize("flag", ["--n-max", "--m-max"])
def test_bounds_without_table_rejects_n_max_and_m_max(capsys, flag):
    code, out, err = run_cli("bounds", "--family", "path-join", "-n", "3", "-m", "2", flag, "4",
                             capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} applies only to bounds --table\n"


def test_gen_rejects_an_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "bogus", "-n", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "semdef gen: error: argument --family: unknown family 'bogus'; choose from ('path', "
        "'cycle', 'star', 'empty', 'wheel', 'wheel-minus-spoke', 'path-join', 'star-join', "
        "'cycle-join', 'generic-join')\n")


@pytest.mark.parametrize("argv, prefix", [
    (["bounds", "--family", "path-join", "--table", "md", "--m", "3"], "--m 3"),
    (["bounds", "--family", "path-join", "--table", "md", "--n", "3"], "--n 3"),
    (["bounds", "--family", "path-join", "-n", "3", "--m", "0"], "--m 0"),
    (["solve", "--graph", "g.json", "--max", "5"], "--max 5"),
])
def test_a_flag_prefix_is_unrecognized(capsys, argv, prefix):
    # no prefix stands for a longer flag: --m is not --m-max, nor --max
    # --max-labels
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err


def test_bounds_table_default_extent(capsys):
    code, out, _ = run_cli("bounds", "--family", "path-join", "--table", "csv", capsys=capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert (rows[0][1:3], rows[-1][1:3]) == (["1", "2"], ["10", "6"])


@pytest.mark.parametrize("flag", ["-n", "-m"])
def test_bounds_table_rejects_n_and_m(capsys, flag):
    code, out, err = run_cli("bounds", "--family", "path-join", "--table", "md", flag, "3",
                             capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} does not apply to bounds --table; use --n-max/--m-max\n"


def test_mid_spoke_on_another_family_is_a_usage_error(capsys):
    code, out, err = run_cli("gen", "--family", "path", "-n", "3", "--mid-spoke",
                             capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --mid-spoke applies only to --family wheel-minus-spoke\n"
    code, out, err = run_cli("gen", "--family", "wheel-minus-spoke", "-n", "5",
                             "--mid-spoke", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --mid-spoke needs an even -n >= 4\n"


def test_base_on_another_family_is_a_usage_error(capsys, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(BASE_CERT))
    code, out, err = run_cli("construct", "--family", "star-join", "-n", "3", "-m", "2",
                             "--base", str(base), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --base applies only to --family generic-join\n"
    code, _, _ = run_cli("construct", "--family", "generic-join", "-m", "2",
                         "--base", str(base), capsys=capsys)
    assert code == 0


def test_reproduce_selection_and_reports(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    md_path = tmp_path / "report.md"
    code, out, _ = run_cli("reproduce", "--select", "errata", "--select", "bounds",
                           "--json", str(json_path), "--md", str(md_path),
                           capsys=capsys)
    assert code == 0
    assert "ERRATA-PASS" in out
    report = json.loads(json_path.read_text())
    assert report["schema"] == "semdef/1"
    ids = [e["id"] for e in report["entries"]]
    assert "erratum-path6-v-list" in ids
    assert "bound-identities" in ids
    assert report["summary"]["fail"] == 0
    assert "| claim |" in md_path.read_text()


@pytest.mark.parametrize("selectors, unknown", [
    (["errata", "erata"], "['erata']"),  # a typo next to a valid group
    (["bogus"], "['bogus']"),
])
def test_reproduce_rejects_a_selector_that_matches_nothing(capsys, tmp_path, selectors, unknown):
    json_path = tmp_path / "report.json"
    argv = [arg for sel in selectors for arg in ("--select", sel)]
    code, out, err = run_cli("reproduce", *argv, "--json", str(json_path), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: no claim group or id matches selection {unknown}\n"
    assert not json_path.exists()


def test_reproduce_json_to_stdout_is_pure_json(capsys):
    code, out, err = run_cli("reproduce", "--select", "errata", "--json", "-", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["fail"] == 0
    # the claim lines and the summary move to stderr
    assert "erratum-path6-v-list" in err and "summary: " in err


def test_reproduce_reports_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("reproduce", "--select", "magic-constants", "--json", str(a), capsys=capsys)
    run_cli("reproduce", "--select", "magic-constants", "--json", str(b), capsys=capsys)
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("generated_at")
    db.pop("generated_at")
    assert da == db


def test_usage_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli("solve", "--graph", str(tmp_path / "missing.json"),
                           capsys=capsys)
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli("construct", "--family", "cycle-join", "-n", "4", "-m", "2",
                           capsys=capsys)
    assert code == 2
    assert "open" in err
    with pytest.raises(SystemExit) as exc:  # --threads is not an option
        main(["solve", "--threads", "2", "--graph", str(tmp_path / "g.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_solve_past_the_kernels_label_range_exits_4(capsys, tmp_path, monkeypatch):
    # a graph of more vertices than the kernel's MAX_LABELS, under a
    # --max-labels that admits it, meets the kernel's limit: exit 4, not the
    # module's argument error, naming the p + 4 labels of the default cap;
    # the Python backend, which would allocate gigabytes for it, is never run
    if _kernel.load() is None:
        pytest.skip("the C kernel cannot be built here (no cc, or it fails)")
    monkeypatch.setattr(_reference, "_solve", lambda *args: pytest.fail("solve ran the Python backend"))
    graph_path = tmp_path / "g.json"
    run_cli("gen", "--family", "empty", "-n", "1100000000", "--json", str(graph_path),
            capsys=capsys)
    code, out, err = run_cli("solve", "--graph", str(graph_path), "--max-labels", "2000000000",
                             capsys=capsys)
    assert (code, out) == (4, "")
    assert err == (f"limit: the search kernel takes at most MAX_LABELS = {_kernel.MAX_LABELS} "
                   "labels and found no witness up to them, but 1100000004 were asked for\n")


def test_negative_max_labels_is_a_usage_error(capsys, tmp_path):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"p": 3, "edges": [[0, 1], [1, 2]]}))
    code, out, err = run_cli("solve", "--graph", str(graph_path), "--max-labels", "-3",
                             capsys=capsys)
    assert code == 2  # not 4, which means "over the limit"
    assert out == ""
    assert err == "error: --max-labels must be >= 0, got -3\n"
    code, _, err = run_cli("solve", "--graph", str(graph_path), "--max-labels", "0",
                           capsys=capsys)
    assert code == 4
    assert err == "limit: search needs 3 labels, over --max-labels 0\n"


@pytest.mark.parametrize(
    "command, flag, data",
    [
        ("solve", "--graph", {"p": 3, "edges": [0, 1]}),
        ("solve", "--graph", [[0, 1]]),
        ("solve", "--graph", {"p": "3", "edges": []}),
        ("solve", "--graph", {"edges": [[0, 1]]}),
        ("verify", "--cert", [1, 2, 3]),
        ("verify", "--cert", {"graph": {"p": 2, "edges": [[0, 1]]}, "labels": "12",
                              "isolated": 0}),
        ("verify", "--cert", {"graph": [], "labels": [1, 2], "isolated": 0}),
        ("verify", "--cert", {"graph": {"p": 2, "edges": [[0, 1]]}, "labels": [1, 2]}),
        ("verify", "--cert", {"graph": {"p": 2, "edges": [[0, 1]]}, "labels": [1, 2],
                              "isolated": 0, "s": "x"}),
        ("verify", "--cert", {"graph": {"p": 2, "edges": [[0, 1]]}, "labels": [1, 2],
                              "isolated": 0, "k": True}),
    ],
)
def test_malformed_json_is_a_usage_error(capsys, tmp_path, command, flag, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(command, flag, str(path), capsys=capsys)
    assert code == 2  # not 1, which means "rejected"
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--graph"],
    ["verify", "--cert"],
    ["construct", "--family", "generic-join", "-m", "2", "--base"],
], ids=["solve", "verify", "construct"])
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run_cli(*argv, str(path), capsys=capsys)
    assert code == 2  # not 1, which for verify means "rejected"
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


# Arbitrary decoded JSON, and objects shaped like graph and certificate files
# whose fields are arbitrary JSON.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)
_graph_json = _json | st.fixed_dictionaries(
    {"p": st.integers(-2, 6) | _json,
     "edges": st.lists(st.lists(st.integers(-2, 6), max_size=3) | _json, max_size=6) | _json},
    optional={"schema": st.just("semdef/1") | _json},
)
_file_json = _graph_json | st.just(BASE_CERT) | st.fixed_dictionaries(
    {"graph": st.just(BASE_CERT["graph"]) | _graph_json,
     "isolated": st.integers(-2, 3) | _json,
     "labels": st.lists(st.integers(-2, 6), max_size=4) | _json},
    optional={"schema": st.just("semdef/1") | _json, "s": _json, "k": _json},
)


@pytest.mark.parametrize("argv", [
    ["solve", "--cap", "1", "--max-labels", "8", "--graph"],
    ["verify", "--cert"],
    ["construct", "--family", "generic-join", "-m", "2", "--base"],
])
@settings(max_examples=100, deadline=None)
@given(data=_file_json)
def test_malformed_file_never_exits_1(argv, data):
    # exit 1 means "rejected": only a file the certificate reader accepts
    # can be rejected; anything else is a usage error (2)
    try:
        certificate_from_json_dict(data)
        readable = True
    except ValueError:
        readable = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(data))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv + [str(path)])  # raises nothing
    assert code in (0, 1, 2, 3, 4)
    assert code != 1 or readable


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "star", "-n", "3"],
    ["construct", "--family", "star-join", "-n", "3", "-m", "2"],
    ["solve", "--graph", "{graph}", "--cap", "1"],
])
def test_failed_json_write_prints_no_summary(capsys, tmp_path, argv):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"p": 3, "edges": [[0, 1], [1, 2]]}))
    target = tmp_path / "missing_dir" / "x.json"
    argv = [a.format(graph=graph_path) for a in argv]
    code, out, err = run_cli(*argv, "--json", str(target), capsys=capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_solve_stats_name_the_backend(capsys, tmp_path, monkeypatch):
    graph_path = tmp_path / "g.json"
    run_cli("gen", "--family", "wheel-minus-spoke", "-n", "5",
            "--json", str(graph_path), capsys=capsys)
    _, _, err = run_cli("solve", "--graph", str(graph_path), capsys=capsys)
    assert re.search(r"stats: .* backend=(c|python)$", err.strip())
    monkeypatch.setattr(_kernel, "load", lambda: None)  # no kernel: the reference runs
    _, _, err = run_cli("solve", "--graph", str(graph_path), capsys=capsys)
    assert err.strip().endswith("backend=python")


def test_solve_deep_graph_without_the_kernel(capsys, tmp_path, monkeypatch):
    # the reference search keeps its own stack, so K_{1,1100} is no limit
    graph_path = tmp_path / "g.json"
    run_cli("gen", "--family", "star", "-n", "1100", "--json", str(graph_path), capsys=capsys)
    monkeypatch.setattr(_kernel, "load", lambda: None)  # no kernel: the reference runs
    code, out, err = run_cli("solve", "--graph", str(graph_path), "--cap", "0",
                             "--max-labels", "2000", capsys=capsys)
    assert code == 0, err
    assert out.startswith(f"deficiency 0; witness labels {list(range(1, 1102))}, ")
    assert re.fullmatch(r"stats: nodes=1101 seconds=\S+ backend=python", err.strip())


@pytest.mark.parametrize("flag", ["--no-prune", "--no-symmetry"])
def test_solve_has_no_cut_switches(capsys, tmp_path, flag):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"p": 3, "edges": [[0, 1], [1, 2]]}))
    with pytest.raises(SystemExit) as exc:  # every cut is always on in solve
        main(["solve", "--graph", str(graph_path), flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_installed_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "semdef.cli", "gen", "--family", "star", "-n", "3"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "p=4, q=3" in proc.stdout
