import pytest

from semdef import bounds
from semdef.bounds import (
    DeficiencyBounds,
    check_bound_identities,
    counting_lower_bound,
    family_bounds,
)
from semdef.constructions import (
    CONSTRUCTIONS,
    construct_cycle_join,
    construct_path_join,
    construct_star_join,
    construct_wheel_minus_spoke,
)
from semdef.cli import main
from semdef.graphs import FAMILY_KINDS, FamilyDescriptor, make_family


def test_counting_examples():
    # P_5 + 3K_1-join: p=8, q=19
    assert counting_lower_bound(8, 19) == 3
    # C_3 + 2K_1-join: p=5, q=9
    assert counting_lower_bound(5, 9) == 1
    assert counting_lower_bound(2, 1) == 0
    with pytest.raises(ValueError):
        counting_lower_bound(0, 0)
    with pytest.raises(ValueError):
        counting_lower_bound(3, -1)


@pytest.mark.parametrize("p", range(1, 13))
def test_counting_zero_iff_within_edge_budget(p):
    for q in range(1, 2 * p + 5):
        assert (counting_lower_bound(p, q) == 0) == (q <= 2 * p - 3)
    # edgeless graphs are SEM outright, whatever p is
    assert counting_lower_bound(p, 0) == 0


def test_identities_spot_values():
    # path join n=3, m=2
    assert counting_lower_bound(5, 8) == 1 == -(-(1 * 1) // 2)
    # star join n=3, m=2
    assert counting_lower_bound(6, 11) == 1


def test_identities_full_grid():
    assert check_bound_identities(50, 50) is None


@pytest.mark.parametrize("call, family", [(0, "path-join"), (1, "star-join"), (2, "cycle-join")])
def test_identity_check_names_the_first_mismatch(monkeypatch, call, family):
    # the counting bound off by one at one call of the first (n, m)
    real, calls = counting_lower_bound, []

    def counting(p, q):
        calls.append(1)
        return real(p, q) + (len(calls) == call + 1)
    monkeypatch.setattr(bounds, "counting_lower_bound", counting)
    assert check_bound_identities(50, 50) == (family, 3, 2)


def test_family_bounds_path_join_special_cases():
    b = family_bounds(FamilyDescriptor("path-join", n=4, m=5))
    assert (b.lower, b.upper) == (4, 4)
    assert b.exact == 4
    b = family_bounds(FamilyDescriptor("path-join", n=6, m=3))
    assert (b.lower, b.upper) == (4, 4)
    b = family_bounds(FamilyDescriptor("path-join", n=2, m=5))
    assert (b.lower, b.upper) == (0, 0)
    b = family_bounds(FamilyDescriptor("path-join", n=5, m=3))
    assert (b.lower, b.upper) == (3, 7)
    assert b.exact is None


def test_family_bounds_star_join():
    b = family_bounds(FamilyDescriptor("star-join", n=2, m=2))
    assert (b.lower, b.upper) == (1, 1)
    b = family_bounds(FamilyDescriptor("star-join", n=4, m=1))
    assert (b.lower, b.upper) == (0, 0)
    b = family_bounds(FamilyDescriptor("star-join", n=4, m=3))
    assert (b.lower, b.upper) == (3, 7)


def test_family_bounds_cycle_join():
    b = family_bounds(FamilyDescriptor("cycle-join", n=4, m=2))
    assert (b.lower, b.upper) == (2, None)
    assert b.upper_source is None
    b = family_bounds(FamilyDescriptor("cycle-join", n=3, m=2))
    assert (b.lower, b.upper) == (1, 2)


def test_family_bounds_wheel():
    for n, exact in [(3, 0), (4, 0), (5, 1), (6, 1), (7, 1)]:
        b = family_bounds(FamilyDescriptor("wheel-minus-spoke", n=n))
        assert (b.lower, b.upper) == (exact, exact)
    b = family_bounds(FamilyDescriptor("wheel-minus-spoke", n=9))
    assert (b.lower, b.upper) == (0, 3)
    b = family_bounds(FamilyDescriptor("wheel-minus-spoke", n=12))
    assert (b.lower, b.upper) == (0, 6)
    b = family_bounds(FamilyDescriptor("wheel-minus-spoke", n=10))
    assert (b.lower, b.upper) == (0, None)


def test_family_bounds_unsupported():
    with pytest.raises(ValueError, match="no closed-form"):
        family_bounds(FamilyDescriptor("path", n=4))
    with pytest.raises(ValueError, match="m >= 2"):
        family_bounds(FamilyDescriptor("path-join", n=4, m=1))
    with pytest.raises(ValueError, match="n >= 2"):
        family_bounds(FamilyDescriptor("star-join", n=1, m=2))


def _grid():
    for n in range(3, 20):
        if not (n >= 8 and n % 4 == 2):
            yield FamilyDescriptor("wheel-minus-spoke", n=n), construct_wheel_minus_spoke(n)
    for n in range(1, 11):
        for m in range(2, 7):
            yield FamilyDescriptor("path-join", n=n, m=m), construct_path_join(n, m)
    for n in range(2, 11):
        for m in range(1, 7):
            yield FamilyDescriptor("star-join", n=n, m=m), construct_star_join(n, m)
    for n in range(3, 14, 2):
        for m in range(2, 7):
            yield FamilyDescriptor("cycle-join", n=n, m=m), construct_cycle_join(n, m)


def test_upper_bounds_equal_construction_fillers_and_order():
    for d, result in _grid():
        b = family_bounds(d)
        assert b.upper == result.claimed_isolated, d
        assert b.lower <= b.upper, d


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("m", range(2, 7))
def test_cycle_join_infeasible_below_lower_bound(n, m):
    g = make_family(FamilyDescriptor("cycle-join", n=n, m=m))
    lower = counting_lower_bound(g.vertex_count, g.q)
    assert lower >= 1
    t = lower - 1
    # too many edges one filler below the bound
    assert g.q > 2 * (g.vertex_count + t) - 3


@pytest.mark.parametrize("kind, n, m, message", [
    ("wheel-minus-spoke", 2, None, "wheel-minus-spoke needs n >= 3, got 2"),
    ("wheel-minus-spoke", 0, None, "wheel-minus-spoke needs n >= 3, got 0"),
    ("wheel-minus-spoke", -3, None, "wheel-minus-spoke needs n >= 3, got -3"),
    ("path-join", 0, 2, "path needs n >= 1, got 0"),
    ("path-join", -1, 3, "path needs n >= 1, got -1"),
    ("star-join", 2, 0, "join families need m >= 1, got 0"),
    ("star-join", 3, -1, "join families need m >= 1, got -1"),
    ("cycle-join", 2, 2, "cycle needs n >= 3, got 2"),
    ("cycle-join", 0, 3, "cycle needs n >= 3, got 0"),
    ("cycle-join", 3, 1, "cycle-join constructions cover m >= 2, got m=1"),
])
def test_family_bounds_edge_descriptors(kind, n, m, message):
    with pytest.raises(ValueError) as exc:
        family_bounds(FamilyDescriptor(kind, n=n, m=m))
    assert str(exc.value) == message


def _outcome(call):
    try:
        return call(), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("kind", list(CONSTRUCTIONS))
@pytest.mark.parametrize("n", range(-1, 21))
def test_constructors_and_bounds_share_one_coverage_rule(kind, n):
    # a constructor fails exactly where family_bounds fails or knows no
    # upper bound, with family_bounds' message for a domain error
    construct = CONSTRUCTIONS[kind][0]
    for m in range(-1, 8) if FAMILY_KINDS[kind][0] else [None]:
        b, bounds_error = _outcome(lambda: family_bounds(FamilyDescriptor(kind, n=n, m=m)))
        r, construct_error = _outcome(lambda: construct(n, m))
        where = (kind, n, m)
        if bounds_error is not None:
            assert construct_error == bounds_error, where
        elif b.upper is None:
            assert construct_error is not None and "open" in construct_error, where
        else:
            assert construct_error is None, where
            assert r.claimed_isolated == b.upper, where
    if kind == "wheel-minus-spoke" and n == 2:
        assert construct_error == "wheel-minus-spoke needs n >= 3, got 2"


def _counting_from_built_graph(d):
    g = make_family(d)
    return counting_lower_bound(g.vertex_count, g.q)


@pytest.mark.parametrize("family", ["wheel-minus-spoke", "path-join", "star-join", "cycle-join"])
def test_bounds_table_same_with_closed_form_sizes(capsys, monkeypatch, family):
    # p and q from closed forms give the table that building each graph gives
    argv = ["bounds", "--family", family, "--table", "csv", "--n-max", "20", "--m-max", "8"]
    assert main(argv) == 0
    closed_form = capsys.readouterr().out
    monkeypatch.setattr(bounds, "_counting_for", _counting_from_built_graph)
    assert main(argv) == 0
    assert capsys.readouterr().out == closed_form
    assert len(closed_form.splitlines()) > 18
