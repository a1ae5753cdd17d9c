import pytest

from semdef.constructions import (
    CONSTRUCTIONS,
    ERRATA,
    ConstructionError,
    ConstructionResult,
    ERRATUM_CYCLE_EVEN,
    ERRATUM_P6_VLIST,
    ERRATUM_STAR_CENTER,
    ERRATUM_WHEEL_RANGES,
    construct_cycle_join,
    construct_general_join,
    construct_path_join,
    construct_star_join,
    construct_wheel_minus_spoke,
    _certify,
    erratum_demo,
    erratum_demos,
    uncorrected_cycle_join_labeling,
    uncorrected_path6_v_list,
    uncorrected_star_join_single,
    uncorrected_wheel_odd_labeling,
)
from semdef.graphs import Graph, cycle, empty_graph, join, path
from semdef.labeling import Labeling, Rejection, edge_sums, verify_sem


def sums_of(result: ConstructionResult) -> list[int]:
    return sorted(edge_sums(result.certificate.graph, result.certificate.labeling))


# ---------------------------------------------------------------- wheel cases

def test_wheel_small_n3():
    r = construct_wheel_minus_spoke(3)
    assert r.certificate.labeling.labels == (1, 4, 3, 2)
    assert r.claimed_isolated == 0
    assert sums_of(r) == list(range(3, 8))


def test_wheel_small_n6_filler_label():
    r = construct_wheel_minus_spoke(6)
    assert r.certificate.labeling.labels == (2, 3, 1, 4, 8, 5, 6)
    assert r.certificate.labeling.total_labels == 8
    assert 7 not in r.certificate.labeling.labels  # the filler takes 7


def test_wheel_small_n7():
    r = construct_wheel_minus_spoke(7)
    assert r.certificate.labeling.labels == (2, 3, 1, 4, 8, 5, 9, 6)
    assert r.claimed_isolated == 1
    assert r.certificate.labeling.total_labels == 9


def test_wheel_general_n9():
    r = construct_wheel_minus_spoke(9)
    assert r.certificate.labeling.labels == (13, 1, 6, 2, 7, 3, 8, 4, 9, 5)
    assert r.claimed_isolated == 3
    assert sums_of(r) == list(range(6, 23))
    assert ERRATUM_WHEEL_RANGES in r.errata_applied


def test_wheel_general_n8_uses_mid_spoke_variant():
    r = construct_wheel_minus_spoke(8)
    assert r.certificate.labeling.labels == (13, 1, 5, 2, 10, 3, 6, 4, 7)
    assert r.claimed_isolated == 4
    assert sums_of(r) == list(range(6, 21))
    assert (0, 4) not in r.certificate.graph.edges  # missing spoke at n/2
    assert r.errata_applied == ()


def test_wheel_general_n11_filler_count():
    assert construct_wheel_minus_spoke(11).claimed_isolated == 4


def test_wheel_dispatcher_and_range_errors():
    assert construct_wheel_minus_spoke(5).claimed_isolated == 1
    assert construct_wheel_minus_spoke(12).claimed_isolated == 6
    with pytest.raises(ValueError, match="open"):
        construct_wheel_minus_spoke(10)
    with pytest.raises(ValueError, match=r"^wheel-minus-spoke needs n >= 3, got 2$"):
        construct_wheel_minus_spoke(2)


def test_wheel_constructor_rejects_an_m():
    # H_n has no m: None is accepted from callers that pass (n, m) to every
    # constructor, any other m is an error rather than an H_n certificate
    assert construct_wheel_minus_spoke(8, None) == construct_wheel_minus_spoke(8)
    with pytest.raises(ValueError, match="takes no parameter m"):
        construct_wheel_minus_spoke(8, 3)
    with pytest.raises(ValueError, match="takes no parameter m"):
        CONSTRUCTIONS["wheel-minus-spoke"][0](9, 0)


@pytest.mark.parametrize("n", [n for n in range(8, 20) if n % 4 != 2])
def test_wheel_general_grid(n):
    r = construct_wheel_minus_spoke(n)
    expected_t = (n - 3) // 2 if n % 2 else n // 2
    assert r.claimed_isolated == expected_t


# ------------------------------------------------------------------ path join

def test_path_join_n2():
    r = construct_path_join(2, 3)
    assert r.certificate.labeling.labels == (1, 5, 2, 3, 4)
    assert r.claimed_isolated == 0
    assert r.certificate.magic_constant == 15  # 3m+6


def test_path_join_n4_special():
    r = construct_path_join(4, 3)
    assert r.certificate.labeling.labels == (1, 2, 8, 9, 3, 5, 7)
    assert r.claimed_isolated == 2
    assert r.certificate.magic_constant == 27  # 6m+9


def test_path_join_n3_generic():
    r = construct_path_join(3, 3)
    assert r.certificate.labeling.labels == (2, 4, 3, 1, 6, 9)
    assert r.claimed_isolated == 3
    assert sums_of(r) == list(range(3, 14))


def test_path_join_n6_special():
    r = construct_path_join(6, 3)
    assert r.certificate.labeling.labels == (2, 1, 3, 11, 13, 12, 4, 7, 10)
    assert r.claimed_isolated == 4
    assert ERRATUM_P6_VLIST in r.errata_applied


def test_path_join_n1_is_star_labeling():
    r = construct_path_join(1, 4)
    assert r.claimed_isolated == 0
    assert sums_of(r) == [3, 4, 5, 6]


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("m", range(2, 7))
def test_path_join_filler_formula(n, m):
    r = construct_path_join(n, m)
    if n in (1, 2):
        expect = 0
    elif n == 4:
        expect = m - 1
    elif n == 6:
        expect = 2 * (m - 1)
    else:
        expect = (n - 1) * (m - 1) - 1
    assert r.claimed_isolated == expect
    assert max(r.certificate.labeling.labels) == r.certificate.labeling.total_labels


def test_path_join_parameter_errors():
    with pytest.raises(ValueError):
        construct_path_join(0, 3)
    with pytest.raises(ValueError):
        construct_path_join(3, 1)


# ------------------------------------------------------------------ star join

def test_star_join_single_added_vertex():
    r = construct_star_join(3, 1)
    assert r.certificate.labeling.labels == (1, 2, 3, 4, 5)
    assert sums_of(r) == list(range(3, 10))
    assert r.certificate.magic_constant == 15  # 3n+6
    assert ERRATUM_STAR_CENTER in r.errata_applied


def test_star_join_n2_m2():
    r = construct_star_join(2, 2)
    assert r.certificate.labeling.labels == (4, 2, 3, 1, 6)
    assert r.claimed_isolated == 1
    assert sums_of(r) == list(range(3, 11))


def test_star_join_filler_formula_example():
    assert construct_star_join(4, 3).claimed_isolated == 7  # n(m-1)-1


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("m", range(1, 7))
def test_star_join_grid(n, m):
    r = construct_star_join(n, m)
    assert r.claimed_isolated == (0 if m == 1 else n * (m - 1) - 1)
    assert max(r.certificate.labeling.labels) == r.certificate.labeling.total_labels


def test_star_join_parameter_errors():
    with pytest.raises(ValueError, match=r"^star-join constructions cover n >= 2, got n=1$"):
        construct_star_join(1, 2)
    with pytest.raises(ValueError):
        construct_star_join(3, 0)


# ----------------------------------------------------------------- cycle join

def test_cycle_join_n5_m2():
    r = construct_cycle_join(5, 2)
    assert r.certificate.labeling.labels == (4, 7, 5, 8, 6, 1, 11)
    assert r.claimed_isolated == 4
    assert sums_of(r) == list(range(5, 20))
    assert ERRATUM_CYCLE_EVEN in r.errata_applied


def test_cycle_join_n3_m2_filler_count():
    assert construct_cycle_join(3, 2).claimed_isolated == 2


def test_cycle_join_v_labels_top_out_at_mn_plus_1():
    r = construct_cycle_join(5, 3)
    assert r.certificate.labeling.labels[5:] == (1, 11, 16)
    assert r.certificate.labeling.total_labels == 16


@pytest.mark.parametrize("n", range(3, 14, 2))
@pytest.mark.parametrize("m", range(2, 7))
def test_cycle_join_grid(n, m):
    r = construct_cycle_join(n, m)
    assert r.claimed_isolated == m * n - (n + m) + 1


def test_cycle_join_parameter_errors():
    with pytest.raises(ValueError, match=r"no construction is known for cycle-join n=4, m=2.*open"):
        construct_cycle_join(4, 2)
    with pytest.raises(ValueError):
        construct_cycle_join(5, 1)


# --------------------------------------------------------------- generic join

def test_general_join_p3_base():
    base = verify_sem(path(3), Labeling([1, 3, 2]))
    assert base and base.min_edge_sum == 4
    r = construct_general_join(base, 2)
    assert r.certificate.labeling.labels == (1, 3, 2, 5, 8)
    assert r.claimed_isolated == 3
    assert sums_of(r) == list(range(4, 12))


def test_general_join_k2_base_m3():
    base = verify_sem(path(2), Labeling([1, 2]))
    r = construct_general_join(base, 3)
    assert r.certificate.labeling.labels == (1, 2, 3, 5, 7)
    assert r.claimed_isolated == 2
    assert sums_of(r) == list(range(3, 10))


def test_general_join_p2_base_matches_path_join_graph():
    base = verify_sem(path(2), Labeling([1, 2]))
    for m in range(1, 6):
        r = construct_general_join(base, m)
        assert r.certificate.graph == join(path(2), empty_graph(m))
        # generic bound never beats the direct labeling
        direct_t = 0
        assert r.claimed_isolated >= direct_t


def test_general_join_precondition_collision():
    # K_2 plus a real isolated vertex labeled 3: largest edge sum 3 == order
    base = verify_sem(Graph(3, [(0, 1)]), Labeling([1, 2, 3]))
    assert base
    with pytest.raises(ValueError, match="collide"):
        construct_general_join(base, 2)


def test_general_join_rejects_edgeless_and_filled_bases():
    base = verify_sem(empty_graph(2), Labeling([1, 2]))
    with pytest.raises(ValueError, match="no edges"):
        construct_general_join(base, 1)
    filled = verify_sem(path(2), Labeling([1, 2], total_labels=3))
    with pytest.raises(ValueError, match="fillers"):
        construct_general_join(filled, 1)


# --------------------------------------------------------------------- errata

def test_all_four_errata_demos():
    demos = erratum_demos()
    assert sorted(d.tag for d in demos) == sorted(
        [ERRATUM_CYCLE_EVEN, ERRATUM_STAR_CENTER, ERRATUM_P6_VLIST, ERRATUM_WHEEL_RANGES]
    )
    for demo in demos:
        rejection = verify_sem(demo.graph, demo.rejected_labeling)
        assert isinstance(rejection, Rejection), demo.tag
        assert rejection.reason == demo.expected_reason, demo.tag
        assert demo.corrected.certificate  # corrected form verifies
        assert demo.tag in demo.corrected.errata_applied or demo.corrected.errata_applied


def test_uncorrected_star_join_collision_detail():
    demo = erratum_demo(ERRATUM_STAR_CENTER)
    rej = verify_sem(demo.graph, demo.rejected_labeling)
    assert rej.reason == "duplicate-sum"


def test_uncorrected_cycle_join_leaves_range():
    bad = erratum_demo(ERRATUM_CYCLE_EVEN).rejected_labeling
    assert max(bad.labels) > bad.total_labels


def test_erratum_demos_follow_the_errata_table():
    assert [d.tag for d in erratum_demos()] == list(ERRATA)
    for tag, (_, stated, reason) in ERRATA.items():
        demo = erratum_demo(tag)
        assert demo.graph == demo.corrected.certificate.graph
        assert demo.rejected_labeling == Labeling(
            stated(), demo.corrected.certificate.labeling.total_labels
        )
        assert demo.expected_reason == reason
        assert tag in demo.corrected.errata_applied


@pytest.mark.parametrize("fixture, args", [
    (uncorrected_wheel_odd_labeling, (8,)),
    (uncorrected_wheel_odd_labeling, (7,)),
    (uncorrected_path6_v_list, (3,)),
    (uncorrected_star_join_single, (1,)),
    (uncorrected_cycle_join_labeling, (4, 2)),
    (uncorrected_cycle_join_labeling, (5, 1)),
])
def test_uncorrected_fixtures_check_their_parameters(fixture, args):
    with pytest.raises(ValueError, match="fixture"):
        fixture(*args)


def test_certify_requires_the_largest_label_to_be_p_plus_t():
    # [1, 2] verifies with one spare label, but then t = 1 is not minimal
    assert verify_sem(path(2), Labeling([1, 2], total_labels=3))
    with pytest.raises(ConstructionError, match="largest label 2 is not p \\+ t = 3"):
        _certify(path(2), [1, 2], 1)
    assert _certify(path(2), [1, 2], 0).claimed_isolated == 0
