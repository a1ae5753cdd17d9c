from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_injections, labeling_is_sem_bruteforce

from semdef.graphs import Graph, cycle, empty_graph, join, path, star, wheel_minus_spoke
from semdef.labeling import (
    Labeling,
    Rejection,
    SemCertificate,
    REASON_DUPLICATE_LABEL,
    REASON_DUPLICATE_SUM,
    REASON_OUT_OF_RANGE,
    REASON_SUM_GAP,
    certificate_from_json_dict,
    edge_sums,
    total_edge_labels,
    verify_sem,
    weighted_sum_required,
)


def test_edge_sums_k2():
    assert edge_sums(path(2), Labeling([1, 2])) == [3]


def test_edge_sums_wheel_minus_spoke_3():
    g = wheel_minus_spoke(3)
    sums = edge_sums(g, Labeling([1, 4, 3, 2]))
    assert sorted(sums) == [3, 4, 5, 6, 7]


def test_edge_sums_path_3():
    assert edge_sums(path(3), Labeling([1, 2, 3])) == [3, 5]


def test_edge_sums_length_mismatch_raises():
    with pytest.raises(ValueError, match="labels"):
        edge_sums(path(3), Labeling([1, 2]))


def test_verify_checks_the_label_count_before_the_labels():
    with pytest.raises(ValueError, match="2 labels but the graph has 3 vertices"):
        verify_sem(path(3), Labeling([1, 9], 3))


def test_verify_wheel_minus_spoke_4():
    cert = verify_sem(wheel_minus_spoke(4), Labeling([2, 3, 1, 4, 5]))
    assert isinstance(cert, SemCertificate)
    assert cert.min_edge_sum == 3
    assert cert.magic_constant == 5 + 7 + 3
    assert cert.isolated == 0


def test_verify_wheel_minus_spoke_5_with_filler():
    g = wheel_minus_spoke(5)
    cert = verify_sem(g, Labeling([1, 7, 5, 3, 6, 4], total_labels=7))
    assert cert
    assert cert.isolated == 1
    sums = edge_sums(g, cert.labeling)
    assert sorted(sums) == list(range(4, 13))


def test_verify_rejects_sum_gap():
    result = verify_sem(path(3), Labeling([1, 2, 3]))
    assert isinstance(result, Rejection)
    assert result.reason == REASON_SUM_GAP


def test_verify_rejects_duplicate_sum():
    # star join with one added vertex, center mislabeled n+1: the sums
    # center-to-leaf i+1 and leaf-i-to-extra collide
    g = join(star(3), empty_graph(1))
    result = verify_sem(g, Labeling([4, 1, 2, 3, 5]))
    assert isinstance(result, Rejection)
    assert result.reason == REASON_DUPLICATE_SUM


def test_duplicate_sum_detail_names_the_first_repeated_sum_in_edge_order():
    # sums 5, 7, 7, 5 in edge order: 7 is the first repeat met, but 5 is
    # the first sum in edge order that occurs twice, and the detail names it
    g = Graph(5, [(0, 1), (0, 2), (1, 3), (3, 4)])
    f = Labeling([1, 4, 6, 3, 2], total_labels=6)
    assert edge_sums(g, f) == [5, 7, 7, 5]
    assert verify_sem(g, f) == Rejection(REASON_DUPLICATE_SUM, "edge sum 5 occurs more than once")


def test_duplicate_sum_found_in_linear_time():
    # P_40001 labelled 1..40001 in order has the odd sums 3..80001; the chord
    # (39997, 40000) repeats the sum 79999 of edge (39998, 39999), three
    # edges from the end of 40,001.  Counting each sum by a rescan took 19 s.
    import time

    n = 40_001
    g = Graph(n, [*path(n).edges, (n - 4, n - 1)])
    start = time.perf_counter()
    result = verify_sem(g, Labeling(range(1, n + 1)))
    assert time.perf_counter() - start < 2.0
    assert result == Rejection(REASON_DUPLICATE_SUM, "edge sum 79999 occurs more than once")


def test_verify_rejects_duplicate_label():
    result = verify_sem(path(2), Labeling([2, 2]))
    assert isinstance(result, Rejection)
    assert result.reason == REASON_DUPLICATE_LABEL
    assert not verify_sem(path(2), Labeling([2, 2]))


def test_verify_rejects_out_of_range():
    result = verify_sem(path(2), Labeling([1, 3], total_labels=2))
    assert result.reason == REASON_OUT_OF_RANGE
    result = verify_sem(path(2), Labeling([0, 1], total_labels=2))
    assert result.reason == REASON_OUT_OF_RANGE
    # the first vertex out of range is named, whichever end it misses
    result = verify_sem(path(4), Labeling([2, 9, 0, 1], total_labels=4))
    assert result.detail == "vertex 1 has label 9, outside 1..4"
    result = verify_sem(path(4), Labeling([2, 0, 9, 1], total_labels=4))
    assert result.detail == "vertex 1 has label 0, outside 1..4"


def test_rejections_are_falsy_certificates_truthy():
    assert not verify_sem(path(3), Labeling([1, 2, 3]))
    assert verify_sem(path(3), Labeling([1, 3, 2]))


def test_empty_graph_trivially_sem():
    cert = verify_sem(empty_graph(0), Labeling([]))
    assert cert
    assert cert.min_edge_sum == 0
    assert cert.magic_constant == 0
    cert = verify_sem(empty_graph(3), Labeling([2, 1, 3]))
    assert cert
    assert cert.magic_constant == 3


def test_labeling_total_labels_validation():
    with pytest.raises(ValueError, match="total_labels"):
        Labeling([1, 2, 3], total_labels=2)


@pytest.mark.parametrize("total", [3.0, True, "3"], ids=["float", "bool", "str"])
def test_labeling_rejects_a_non_integer_total_labels(total):
    # a float budget used to give a certificate with isolated=1.0 and
    # magic_constant=7.0, whose JSON the certificate reader then rejected
    with pytest.raises(ValueError, match=rf"^total_labels must be an integer, got {total!r}$"):
        Labeling([1, 2], total)


def test_labeling_total_labels_defaults_to_the_vertex_count():
    assert Labeling([2, 1, 3]).total_labels == 3
    assert Labeling([2, 1, 3], None) == Labeling([2, 1, 3], 3)
    assert Labeling([]).total_labels == 0
    cert = verify_sem(path(2), Labeling([1, 2], 3))
    assert (cert.isolated, cert.magic_constant) == (1, 7)
    assert type(cert.isolated) is int and type(cert.magic_constant) is int


def test_labeling_rejects_a_non_integer_label():
    # int() used to truncate 1.7 to 1, so verify_sem certified labels the
    # caller never gave
    with pytest.raises(ValueError, match=r"^label must be an integer, got 1\.7$"):
        Labeling([1.7, 2, 3])
    with pytest.raises(ValueError, match=r"^label must be an integer, got '2'$"):
        Labeling(iter([1, "2", 3]))
    with pytest.raises(ValueError, match=r"^label must be an integer, got True$"):
        Labeling([True, 2, 3])


@pytest.mark.parametrize(
    "g,labels,total",
    [
        (wheel_minus_spoke(4), [2, 3, 1, 4, 5], 5),
        (wheel_minus_spoke(5), [1, 7, 5, 3, 6, 4], 7),
        (cycle(5), [1, 3, 5, 2, 4], 5),
        (join(path(2), empty_graph(3)), [1, 5, 2, 3, 4], 5),
    ],
)
def test_total_extension_is_magic_and_bijective(g, labels, total):
    cert = verify_sem(g, Labeling(labels, total))
    assert cert
    elabels = total_edge_labels(cert)
    # edge labels occupy total+1 .. total+q exactly
    assert sorted(elabels) == list(range(total + 1, total + g.q + 1))
    for (u, v), el in zip(g.edges, elabels):
        assert labels[u] + el + labels[v] == cert.magic_constant


def test_weighted_sum_required_examples():
    assert weighted_sum_required(9, 3) == 63
    assert weighted_sum_required(0, 12) == 0
    assert weighted_sum_required(1, 3) == 3
    with pytest.raises(ValueError):
        weighted_sum_required(-1, 3)


def test_weighted_sum_required_matches_accepted_certificates():
    for g, labels, total in [
        (wheel_minus_spoke(4), [2, 3, 1, 4, 5], 5),
        (cycle(3), [1, 2, 3], 3),
        (join(star(2), empty_graph(2)), [4, 2, 3, 1, 6], 6),
    ]:
        cert = verify_sem(g, Labeling(labels, total))
        assert cert
        assert sum(edge_sums(g, cert.labeling)) == weighted_sum_required(
            g.q, cert.min_edge_sum
        )


@pytest.mark.parametrize(
    "g,t",
    [
        (cycle(3), 0),
        (cycle(3), 2),
        (path(4), 0),
        (path(4), 1),
        (star(3), 1),
        (wheel_minus_spoke(3), 0),
        (wheel_minus_spoke(5), 1),
        (join(star(2), empty_graph(2)), 1),
    ],
)
def test_verifier_agrees_with_bruteforce_on_every_injection(g, t):
    n_total = g.vertex_count + t
    assert n_total <= 9
    for perm in all_injections(g.vertex_count, n_total):
        expected = labeling_is_sem_bruteforce(g, perm, n_total)
        assert bool(verify_sem(g, Labeling(perm, n_total))) == expected


def test_certificate_json_round_trip():
    g = wheel_minus_spoke(5)
    cert = verify_sem(g, Labeling([1, 7, 5, 3, 6, 4], total_labels=7))
    data = cert.to_json_dict()
    assert data["schema"] == "semdef/1"
    graph, lab, claimed = certificate_from_json_dict(data)
    assert graph == g
    assert lab == cert.labeling
    assert claimed == {"isolated": 1, "s": cert.min_edge_sum, "k": cert.magic_constant}
    again = verify_sem(graph, lab)
    assert again == cert


# Arbitrary decoded JSON, and objects shaped like the readers' input whose
# fields are arbitrary JSON.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)
_edges = st.lists(st.lists(st.integers(-2, 6), max_size=3) | _json, max_size=6)
_graph_json = _json | st.fixed_dictionaries(
    {"p": st.integers(-2, 6) | _json, "edges": _edges | _json},
    optional={"schema": st.just("semdef/1") | _json},
)
_cert_json = _json | st.fixed_dictionaries(
    {"graph": st.just({"p": 3, "edges": [[0, 1], [1, 2]]}) | _graph_json,
     "isolated": st.integers(-2, 3) | _json,
     "labels": st.lists(st.integers(-2, 9), max_size=5) | _json},
    optional={"schema": st.just("semdef/1") | _json, "s": _json, "k": _json},
)


@settings(max_examples=150, deadline=None)
@given(_graph_json)
def test_graph_reader_raises_only_value_error(data):
    try:
        g = Graph.from_json_dict(data)
    except ValueError:
        return
    assert Graph.from_json_dict(g.to_json_dict()) == g


@settings(max_examples=150, deadline=None)
@given(_cert_json)
def test_certificate_reader_raises_only_value_error(data):
    try:
        certificate_from_json_dict(data)
    except ValueError:
        pass


@st.composite
def _graph_and_labels(draw):
    p = draw(st.integers(0, 6))
    pairs = list(combinations(range(p), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    t = draw(st.integers(0, 3))
    labels = draw(st.lists(st.integers(-1, p + t + 1), min_size=p, max_size=p))
    return Graph(p, edges), labels, p + t


@settings(max_examples=500, deadline=None)
@given(_graph_and_labels())
def test_verifier_agrees_with_bruteforce_on_random_labelings(case):
    g, labels, total = case
    expected = labeling_is_sem_bruteforce(g, labels, total)
    assert bool(verify_sem(g, Labeling(labels, total))) == expected
