"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria (all exact, combinatorial):
  1. every construction over the stated grids yields a verifying certificate
  2. each certificate's filler count equals the stated closed form
  3. exact small deficiencies via the solver
  4. nonexistence by exhaustion / counting
  5. counting bound equals the per-family lower-bound formulas up to 50x50
  6. the solver returns the least witness, or none, of the independent
     search in tests/oracles.py, the reference for every cut it makes
  7. the four formula corrections: original rejected, corrected accepted
  8. magic-constant spot checks recomputed from certificates

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import random
import time

from oracles import least_sem_labeling, random_graph

from semdef.bounds import check_bound_identities, counting_lower_bound
from semdef.constructions import (
    construct_cycle_join,
    construct_general_join,
    construct_path_join,
    construct_star_join,
    construct_wheel_minus_spoke,
    erratum_demos,
)
from semdef.graphs import (
    FamilyDescriptor,
    cycle,
    empty_graph,
    join,
    make_family,
    path,
    star,
    wheel_minus_spoke,
)
from semdef.labeling import Rejection, SemCertificate, verify_sem
from semdef.solver import deficiency, find_sem


def _construction_grid():
    """(ConstructionResult, expected fillers) over the full acceptance grid."""
    for n in range(3, 8):
        yield construct_wheel_minus_spoke(n), (0 if n <= 4 else 1)
    for n in range(8, 20):
        if n % 4 != 2:
            yield construct_wheel_minus_spoke(n), ((n - 3) // 2 if n % 2 else n // 2)
    for n in range(1, 11):
        for m in range(2, 7):
            if n in (1, 2):
                expect = 0
            elif n == 4:
                expect = m - 1
            elif n == 6:
                expect = 2 * (m - 1)
            else:
                expect = (n - 1) * (m - 1) - 1
            yield construct_path_join(n, m), expect
    for n in (4, 6):
        for m in range(7, 9):  # the special forms continue to m = 8
            yield construct_path_join(n, m), (m - 1 if n == 4 else 2 * (m - 1))
    for n in range(2, 11):
        for m in range(1, 7):
            yield construct_star_join(n, m), (0 if m == 1 else n * (m - 1) - 1)
    for n in range(3, 14, 2):
        for m in range(2, 7):
            yield construct_cycle_join(n, m), m * n - (n + m) + 1
    for base_graph in (
        [path(n) for n in range(2, 7)]
        + [star(n) for n in range(2, 6)]
        + [cycle(n) for n in (3, 5, 7)]
    ):
        base = find_sem(base_graph, 0).witness
        assert base is not None
        top_sum = base.min_edge_sum + base_graph.q - 1
        for m in range(1, 6):
            expect = top_sum + (m - 2) * base_graph.vertex_count - m
            yield construct_general_join(base, m), expect


def test_criterion_1_construction_grid_verifies():
    start = time.perf_counter()
    count = 0
    for result, _ in _construction_grid():
        cert = result.certificate
        assert isinstance(cert, SemCertificate)
        # re-verify through the checker rather than trusting the constructor
        again = verify_sem(cert.graph, cert.labeling)
        assert again == cert
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"construction grid took {elapsed:.2f}s, budget 5s"
    print(f"\ncriterion 1 (construction grid, {count} certificates, {elapsed:.2f}s): PASS")


def test_criterion_2_filler_count_formulas():
    start = time.perf_counter()
    count = 0
    for result, expect in _construction_grid():
        assert result.claimed_isolated == expect
        assert result.certificate.isolated == expect
        count += 1
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 2 (filler formulas, {count} certificates, {elapsed:.2f}s): PASS")


def test_criterion_3_exact_small_deficiencies():
    start = time.perf_counter()
    cases = []
    for n, expect in [(3, 0), (4, 0), (5, 1), (6, 1), (7, 1)]:
        cases.append((wheel_minus_spoke(n), 2, expect, f"H_{n}"))
    for m in range(2, 7):
        cases.append((join(path(2), empty_graph(m)), 0, 0, f"P2+{m}K1"))
    cases.append((join(path(4), empty_graph(3)), 4, 2, "P4+3K1"))
    cases.append((join(path(4), empty_graph(4)), 4, 3, "P4+4K1"))
    for n in range(2, 7):
        cases.append((join(star(n), empty_graph(1)), 0, 0, f"K1{n}+1K1"))
    cases.append((join(star(2), empty_graph(2)), 2, 1, "K12+2K1"))
    for g, cap, expect, name in cases:
        out = deficiency(g, cap)
        assert out.deficiency == expect, f"{name}: got {out.deficiency}, want {expect}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"exact deficiencies took {elapsed:.1f}s, budget 600s"
    print(f"\ncriterion 3 (exact deficiencies, {len(cases)} cases, {elapsed:.2f}s): PASS")


def test_criterion_4_nonexistence():
    start = time.perf_counter()
    for n in (5, 6, 7, 8):
        assert find_sem(wheel_minus_spoke(n), 0).witness is None, f"H_{n}"
    for n in (3, 4, 5):
        assert find_sem(join(path(n), empty_graph(3)), 0).witness is None
    for n in (2, 3, 4):
        for m in (2, 3):
            assert find_sem(join(star(n), empty_graph(m)), 0).witness is None
    checked = 0
    for n in range(3, 11):
        for m in range(2, 7):
            g = make_family(FamilyDescriptor("cycle-join", n=n, m=m))
            t = counting_lower_bound(g.vertex_count, g.q) - 1
            assert t >= 0
            assert g.q > 2 * (g.vertex_count + t) - 3
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"nonexistence took {elapsed:.1f}s, budget 120s"
    print(f"\ncriterion 4 (nonexistence, 14 searches + {checked} counting cases, "
          f"{elapsed:.2f}s): PASS")


def test_criterion_5_bound_identities():
    start = time.perf_counter()
    assert check_bound_identities(50, 50) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"identities took {elapsed:.2f}s, budget 1s"
    print(f"\ncriterion 5 (bound identities 50x50, {elapsed:.2f}s): PASS")


def test_criterion_6_oracle_equivalence_and_pruning():
    start = time.perf_counter()
    rng = random.Random(8226433)
    corpus = []
    for _ in range(100):
        p = rng.randint(1, 8)
        g = random_graph(rng, p)
        corpus.append((g, rng.randint(0, min(2, 8 - p))))
    for d in (
        FamilyDescriptor("wheel-minus-spoke", n=3),
        FamilyDescriptor("path-join", n=1, m=2),
        FamilyDescriptor("path-join", n=2, m=2),
        FamilyDescriptor("star-join", n=2, m=1),
        FamilyDescriptor("star-join", n=2, m=2),
        FamilyDescriptor("cycle-join", n=3, m=2),
        FamilyDescriptor("wheel", n=3),
        FamilyDescriptor("path", n=4),
        FamilyDescriptor("cycle", n=3),
        FamilyDescriptor("star", n=3),
    ):
        g = make_family(d)
        for t in range(0, 8 - g.vertex_count + 1):
            corpus.append((g, t))
    witnesses = 0
    for g, t in corpus:
        assert g.vertex_count + t <= 8
        res = find_sem(g, t)
        least = least_sem_labeling(g, t)
        assert (res.witness and res.witness.labeling.labels) == least, (g, t)
        witnesses += least is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"oracle equivalence took {elapsed:.1f}s, budget 300s"
    print(f"\ncriterion 6 (oracle equivalence, {len(corpus)} instances, {witnesses} "
          f"with a witness, {elapsed:.2f}s): PASS")


def test_criterion_7_errata_demonstrations():
    start = time.perf_counter()
    demos = erratum_demos()
    assert len(demos) == 4
    for demo in demos:
        rejection = verify_sem(demo.graph, demo.rejected_labeling)
        assert isinstance(rejection, Rejection), demo.tag
        assert rejection.reason == demo.expected_reason, demo.tag
        corrected = verify_sem(
            demo.corrected.certificate.graph, demo.corrected.certificate.labeling
        )
        assert isinstance(corrected, SemCertificate), demo.tag
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 7 (errata demonstrations, 4 pairs, {elapsed:.2f}s): PASS")


def test_criterion_8_magic_constant_spot_checks():
    start = time.perf_counter()
    for m in range(2, 9):
        cert = construct_path_join(2, m).certificate
        assert cert.magic_constant == 3 * m + 6
        assert cert.magic_constant == cert.labeling.total_labels + cert.graph.q + cert.min_edge_sum
    for n in range(2, 9):
        cert = construct_star_join(n, 1).certificate
        assert cert.magic_constant == 3 * n + 6
    for m in range(2, 9):
        cert = construct_path_join(4, m).certificate
        assert cert.magic_constant == 6 * m + 9
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 8 (magic constants, {elapsed:.2f}s): PASS")
