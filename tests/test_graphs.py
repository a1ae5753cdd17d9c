from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semdef
from semdef.bounds import family_bounds
from semdef.graphs import (
    FAMILY_KINDS,
    FamilyDescriptor,
    Graph,
    cycle,
    empty_graph,
    family_size,
    join,
    make_family,
    path,
    star,
    wheel,
    wheel_minus_spoke,
)


def test_wheel_minus_spoke_3_exact_edges():
    g = wheel_minus_spoke(3)
    assert g.vertex_count == 4
    # hub 0, rim 1..3; spokes to x_2, x_3 only; full rim triangle
    assert g.edges == ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_wheel_minus_spoke_mid_variant():
    g = wheel_minus_spoke(8, missing_spoke=4)
    assert (0, 4) not in g.edges
    assert (0, 1) in g.edges
    assert g.q == 15


@pytest.mark.parametrize("n", range(3, 21))
def test_wheel_minus_spoke_order_and_size(n):
    g = wheel_minus_spoke(n)
    assert (g.vertex_count, g.q) == (n + 1, 2 * n - 1)
    # extremal for the counting bound
    assert g.q == 2 * g.vertex_count - 3


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("m", range(1, 9))
def test_join_family_closed_forms(n, m):
    pj = make_family(FamilyDescriptor("path-join", n=n, m=m))
    assert (pj.vertex_count, pj.q) == (n + m, n * (m + 1) - 1)
    sj = make_family(FamilyDescriptor("star-join", n=n, m=m))
    assert (sj.vertex_count, sj.q) == (n + m + 1, (n + 1) * (m + 1) - 1)
    if n >= 3:
        cj = make_family(FamilyDescriptor("cycle-join", n=n, m=m))
        assert (cj.vertex_count, cj.q) == (n + m, n * (m + 1))


def test_path_join_example():
    g = make_family(FamilyDescriptor("path-join", n=3, m=3))
    assert g.vertex_count == 6
    assert g.q == 11


def test_empty_graph():
    g = empty_graph(0)
    assert (g.vertex_count, g.q) == (0, 0)
    assert make_family(FamilyDescriptor("empty", n=3)).q == 0


def test_join_cycle_with_one_vertex_is_wheel():
    assert join(cycle(3), empty_graph(1)) == wheel(3)
    assert join(cycle(3), empty_graph(1)).q == 6


def test_join_single_vertex_with_empty_is_star():
    for m in range(1, 6):
        assert join(path(1), empty_graph(m)) == star(m)


def test_join_two_empties():
    g = join(empty_graph(2), empty_graph(0))
    assert (g.vertex_count, g.q) == (2, 0)


@pytest.mark.parametrize(
    "g", [path(4), cycle(5), star(3), wheel_minus_spoke(6), wheel(4)]
)
@pytest.mark.parametrize("m", range(0, 5))
def test_join_with_empty_edge_count(g, m):
    joined = join(g, empty_graph(m))
    assert joined.q == g.q + m * g.vertex_count


def test_degree_sequence_examples():
    assert wheel_minus_spoke(5).degrees() == [4, 2, 3, 3, 3, 3]
    assert cycle(4).degrees() == [2, 2, 2, 2]
    assert star(3).degrees() == [3, 1, 1, 1]


@pytest.mark.parametrize(
    "d",
    [
        FamilyDescriptor("path-join", n=5, m=4),
        FamilyDescriptor("cycle-join", n=7, m=3),
        FamilyDescriptor("star-join", n=6, m=2),
        FamilyDescriptor("wheel-minus-spoke", n=12),
        FamilyDescriptor("wheel", n=9),
    ],
)
def test_degree_sum_is_twice_edge_count(d):
    g = make_family(d)
    assert sum(g.degrees()) == 2 * g.q


def test_graph_rejects_loops_multiedges_and_bad_endpoints():
    with pytest.raises(ValueError, match="loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph(3, [(0, 1), (1, 0)])
    # sorted edges, as well as unsorted ones, are scanned for a duplicate
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(ValueError, match="endpoint"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_rejects_an_edge_that_is_not_a_pair():
    with pytest.raises(ValueError, match=r"^edge \[0, 1, 2\] is not a pair$"):
        Graph(3, [[0, 1, 2]])
    with pytest.raises(ValueError, match=r"^edge \[0\] is not a pair$"):
        Graph(3, [[0]])
    with pytest.raises(ValueError, match=r"^edge 5 is not a pair$"):
        Graph(3, [5])
    with pytest.raises(ValueError, match=r"^edge \[0, 1, 2\] is not a pair$"):
        Graph.from_json_dict({"p": 3, "edges": [[0, 1, 2]]})


def test_graph_rejects_a_non_integer():
    # a float endpoint used to pass every check and fail later, in the verifier
    with pytest.raises(ValueError, match=r"^edge \(0, 1\.5\) is not a pair of integers$"):
        Graph(3, [(0, 1.5)])
    with pytest.raises(ValueError, match=r"^edge \('a', 1\) is not a pair of integers$"):
        Graph(3, [("a", 1)])
    # types are compared exactly, as in the JSON reader, which leaves this
    # check to the constructor
    with pytest.raises(ValueError, match=r"^edge \[0, True\] is not a pair of integers$"):
        Graph.from_json_dict({"p": 3, "edges": [[0, True]]})
    with pytest.raises(ValueError, match=r"^vertex_count must be an integer, got 2\.0$"):
        Graph(2.0, [(0, 1)])


def test_edges_canonically_sorted():
    g = Graph(4, [(3, 1), (2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert Graph(4, [(0, 1), (0, 2), (1, 3)]).edges == g.edges


def test_graph_json_round_trip():
    g = wheel_minus_spoke(7)
    data = g.to_json_dict()
    assert data["schema"] == "semdef/1"
    assert data["edges"] == sorted(data["edges"])
    assert Graph.from_json_dict(data) == g
    with pytest.raises(ValueError, match="schema"):
        Graph.from_json_dict({"schema": "other/9", "p": 1, "edges": []})


def test_descriptor_validation():
    with pytest.raises(ValueError, match="unknown family"):
        FamilyDescriptor("moebius", n=4)
    with pytest.raises(ValueError, match="requires parameter n"):
        FamilyDescriptor("path")
    with pytest.raises(ValueError, match="requires parameter m"):
        FamilyDescriptor("path-join", n=3)
    with pytest.raises(ValueError, match="n >= 3"):
        make_family(FamilyDescriptor("cycle", n=2))
    with pytest.raises(ValueError, match="generic-join"):
        make_family(FamilyDescriptor("generic-join", m=2))


@pytest.mark.parametrize("kind, n, m, message", [
    ("wheel-minus-spoke", 8, 3, "takes no parameter m"),
    ("path", 3, 7, "takes no parameter m"),
    ("empty", 0, 1, "takes no parameter m"),
    ("generic-join", 4, 2, "takes no parameter n"),
])
def test_descriptor_rejects_a_parameter_its_family_does_not_take(kind, n, m, message):
    for call in (make_family, family_size, family_bounds):
        with pytest.raises(ValueError, match=message):
            call(FamilyDescriptor(kind, n=n, m=m))


def test_family_parameter_errors():
    with pytest.raises(ValueError):
        wheel_minus_spoke(2)
    with pytest.raises(ValueError):
        wheel_minus_spoke(5, missing_spoke=6)
    with pytest.raises(ValueError):
        make_family(FamilyDescriptor("path-join", n=2, m=0))


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(sorted(FAMILY_KINDS)), st.integers(-2, 40), st.integers(-2, 40))
def test_family_size_matches_make_family(kind, n, m):
    needs_m, least_n = FAMILY_KINDS[kind][:2]
    d = FamilyDescriptor(kind, n=None if least_n is None else n, m=m if needs_m else None)
    try:
        g = make_family(d)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            family_size(d)
        assert str(got.value) == str(exc)
    else:
        assert family_size(d) == (g.vertex_count, g.q)



# ---------------------------------------------------------------------------
# The builders emit canonical edges and skip Graph's checks
# ---------------------------------------------------------------------------

def _assert_canonical(g):
    """g equals the checked Graph of its own edges, edge tuple included."""
    checked = Graph(g.vertex_count, list(g.edges))
    assert type(g.edges) is tuple
    assert (g.vertex_count, g.edges) == (checked.vertex_count, checked.edges)


@st.composite
def _small_graphs(draw):
    p = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    return Graph(p, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=300, deadline=None)
@given(_small_graphs(), _small_graphs())
def test_join_is_canonical(g, h):
    _assert_canonical(join(g, h))


@pytest.mark.parametrize("kind", [k for k, row in FAMILY_KINDS.items() if row[3]])
def test_family_builders_are_canonical(kind):
    needs_m, least_n, _, build, _ = FAMILY_KINDS[kind]
    for n in range(least_n, 41):
        for args in [(n, m) for m in range(1, 9)] if needs_m else [(n,)]:
            _assert_canonical(build(*args))


def test_wheel_minus_spoke_is_canonical_for_every_missing_spoke():
    for n in range(3, 41):
        for s in range(1, n + 1):
            _assert_canonical(wheel_minus_spoke(n, s))


def test_canonical_constructor_stays_in_graphs_module():
    package = Path(semdef.__file__).parent
    users = sorted(f.name for f in package.glob("*.py") if "_canonical" in f.read_text())
    assert users == ["graphs.py"]
