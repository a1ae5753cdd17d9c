import contextlib
import itertools
import random
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import least_sem_labeling, orbit_predecessors, random_graph

from semdef.graphs import (
    FamilyDescriptor,
    Graph,
    cycle,
    empty_graph,
    join,
    make_family,
    path,
    star,
    wheel_minus_spoke,
)
from semdef import _kernel, _orbits, reproduce, solver
from semdef.bounds import counting_lower_bound
from semdef.labeling import Labeling, SemCertificate, verify_sem
from semdef.manifest import CLAIMS
from semdef.solver import deficiency, find_sem


def test_find_sem_wheel_5():
    g = wheel_minus_spoke(5)
    assert find_sem(g, 0).witness is None
    res = find_sem(g, 1)
    assert res.witness is not None
    assert res.witness.isolated == 1


def test_find_sem_triangle():
    res = find_sem(cycle(3), 0)
    assert res.witness is not None
    assert res.witness.labeling.labels == (1, 2, 3)


def test_find_sem_star_join_not_sem():
    assert find_sem(join(star(2), empty_graph(2)), 0).witness is None


def test_find_sem_empty_graph():
    res = find_sem(empty_graph(0), 0)
    assert res.witness is not None
    res = find_sem(empty_graph(0), 2)
    assert res.witness.isolated == 2


def test_find_sem_with_real_isolated_vertex():
    # K_2 plus a degree-0 vertex: any completion works
    res = find_sem(Graph(3, [(0, 1)]), 0)
    assert res.witness is not None
    # one vertex and no filler: labels 1 and N are the one label 1
    assert deficiency(Graph(1, []), 0).deficiency == 0


def test_deficiency_wheel_4():
    out = deficiency(wheel_minus_spoke(4), 2)
    assert out.deficiency == 0
    assert out.is_exact


def test_deficiency_path_join_p4_m3():
    out = deficiency(join(path(4), empty_graph(3)), 4)
    assert out.deficiency == 2


def test_deficiency_cycle_join_c3_m2():
    # counting gives 1, the construction gives 2; search pins the exact value
    out = deficiency(join(cycle(3), empty_graph(2)), 2)
    assert out.deficiency == 2


def test_deficiency_not_sem_up_to_cap():
    out = deficiency(join(cycle(4), empty_graph(2)), 3)
    assert out.deficiency is None
    assert not out.is_exact
    assert out.cap == 3


def test_witnesses_reverify():
    for g, cap in [
        (wheel_minus_spoke(5), 1),
        (join(path(4), empty_graph(3)), 2),
        (join(star(2), empty_graph(2)), 1),
    ]:
        out = deficiency(g, cap)
        assert isinstance(out.witness, SemCertificate)
        assert verify_sem(g, out.witness.labeling)


def test_search_limit(c_backend):
    # the library searches any label count it is asked for: these need 18
    # and 17..19 labels, and only the CLI's --max-labels refuses them
    res = find_sem(path(10), 8)
    assert (res.total_labels, res.nodes) == (18, 34)
    out = deficiency(join(path(8), empty_graph(3)), 8)
    assert (out.deficiency, out.nodes) == (8, 2_301_091)
    assert out.witness.labeling.labels == (7, 2, 4, 1, 19, 16, 18, 13, 6, 10, 14)


def test_kernel_searches_up_to_its_label_range(c_backend):
    # the kernel's bitsets index at most _kernel.MAX_LABELS labels, so the
    # kernel call searches only t up to MAX_LABELS - p: a cap past it still
    # finds a small deficiency (on tables for 18 labels, not for the cap's),
    # and a search that needs labels past it raises the limit, naming the
    # range and the p + t labels asked for
    g = join(path(4), empty_graph(3))
    out = deficiency(g, 10**12)
    assert (out.deficiency, out.nodes, out.backend) == (2, 404, "c")
    with pytest.raises(solver.SearchLimitError,
                       match=f"MAX_LABELS = {_kernel.MAX_LABELS} labels .* but 4294967308 were"):
        find_sem(g, 2**32 + 5)


def test_deficiency_past_the_counting_bound_builds_no_plan(monkeypatch):
    # C_5+8K_1 needs t >= 11 by counting, so a cap of 0 searches nothing, and
    # no kernel is loaded, no plan builder runs and no search does; neither
    # for a graph with no vertices, whose empty labeling needs no search
    def fail(*args):
        pytest.fail("a kernel was loaded, or a plan built or searched, with no label to place")

    for name in ("_solve", "_plan", "_run_search"):
        monkeypatch.setattr(solver, name, fail)
    monkeypatch.setattr(_kernel, "load", fail)
    g = join(cycle(5), empty_graph(8))
    out = deficiency(g, 0)
    assert (out.deficiency, out.witness, out.nodes, out.backend) == (None, None, 0, "python")
    res = find_sem(g, 10)
    assert (res.witness, res.nodes, res.backend) == (None, 0, "python")
    for t in (0, 2):
        res, out = find_sem(empty_graph(0), t), deficiency(empty_graph(0), t)
        assert (res.witness.isolated, res.nodes, res.backend) == (t, 0, "python")
        assert (out.deficiency, out.witness.isolated, out.nodes, out.backend) == (0, 0, 0, "python")


def test_deficiency_cap_validation():
    with pytest.raises(ValueError):
        deficiency(path(2), -1)
    with pytest.raises(ValueError):
        find_sem(path(2), -1)


def _corpus():
    rng = random.Random(411017)
    graphs = []
    for _ in range(40):
        p = rng.randint(1, 7)
        g = random_graph(rng, p)
        t = rng.randint(0, min(2, 8 - p))
        graphs.append((g, t))
    # family graphs at minimal parameters
    for d in [
        FamilyDescriptor("wheel-minus-spoke", n=3),
        FamilyDescriptor("path-join", n=2, m=2),
        FamilyDescriptor("star-join", n=2, m=1),
        FamilyDescriptor("cycle-join", n=3, m=2),
    ]:
        g = make_family(d)
        for t in range(0, 8 - g.vertex_count + 1):
            graphs.append((g, t))
    return graphs


def _labels(res):
    """The witness labels of a SearchResult or SearchOutcome, or None."""
    return None if res.witness is None else res.witness.labeling.labels


def test_solver_matches_bruteforce_oracle_on_corpus():
    for g, t in _corpus():
        assert _labels(find_sem(g, t)) == least_sem_labeling(g, t), (g, t)


def test_monotonicity_in_filler_count():
    for g, t in _corpus():
        if find_sem(g, t).witness is not None and g.vertex_count + t < 9:
            assert find_sem(g, t + 1).witness is not None, (g, t)


def test_repeated_runs_are_deterministic():
    g = join(star(2), empty_graph(2))
    a = deficiency(g, 2)
    b = deficiency(g, 2)
    assert a.deficiency == b.deficiency == 1
    assert a.witness.labeling == b.witness.labeling
    assert a.nodes == b.nodes


def test_stats_populated():
    res = find_sem(wheel_minus_spoke(4), 0)
    assert res.nodes > 0
    assert res.seconds >= 0.0
    assert res.total_labels == 5


# ---------------------------------------------------------------------------
# Orbit links: the last earlier position whose stabilizer orbit holds each one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g, order, orbit_prev", [
    # W_8: the rim is one orbit of the dihedral group; fixing rim vertex 0
    # leaves its reflection, which swaps 1 and 7
    (join(cycle(8), empty_graph(1)), [8, 0, 1, 2, 3, 4, 5, 6, 7],
     [-1, -1, 1, 1, 1, 1, 1, 1, 2]),
    # C_4+2K_1, the octahedron: one orbit; fixing 0 fixes its antipode 2 and
    # leaves 1, 3, 4 and 5 one orbit; fixing 0..3 still lets 4 and 5 swap
    (join(cycle(4), empty_graph(2)), [0, 1, 2, 3, 4, 5], [-1, 0, 0, 1, 1, 4]),
    # C_3 U C_4: one equitable cell of seven degree-2 vertices, but two
    # orbits, so neither cycle links to the other
    (Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]), list(range(7)),
     [-1, 0, 1, -1, 3, 3, 4]),
    # K_{1,200}: the leaves are twins, each linked to the previous one
    (star(200), list(range(201)), [-1, -1, *range(1, 200)]),
    # C_3+4K_1: the triangle and the added four
    (join(cycle(3), empty_graph(4)), list(range(7)), [-1, 0, 1, -1, 3, 4, 5]),
    # K_{1,3}+4K_1: the leaves and the added vertices; the centre has none
    (join(star(3), empty_graph(4)), list(range(8)), [-1, -1, 1, 2, -1, 4, 5, 6]),
    # P_3 with two isolated vertices: the path's ends, and the isolated pair
    (Graph(5, [(0, 1), (1, 2)]), [1, 0, 2, 3, 4], [-1, -1, 1, -1, 3]),
    # H_9: only the reflection fixing rim vertex 1 is left, swapping 2 and 9
    (wheel_minus_spoke(9), [0, 2, 3, 4, 5, 6, 7, 8, 9, 1], [-1] * 8 + [1, -1]),
], ids=["c8-join-1", "c4-join-2", "c3-u-c4", "star-200", "c3-join-4", "k13-join-4",
        "p3-u-2k1", "h9"])
def test_search_order_orbit_links(g, order, orbit_prev):
    got = solver._plan(g)
    assert (got.order, got.orbit_prev) == (order, orbit_prev)
    if g.vertex_count <= 7:
        assert orbit_prev == orbit_predecessors(g, order)
    if _kernel.load() is not None:
        assert _c_plan(g) == got


@st.composite
def _orbit_case(draw):
    """A graph on at most 7 vertices: two random components with isolated
    vertices, or a regular circulant graph, whose degrees tell no vertex
    apart."""
    if draw(st.booleans()):
        g, _ = draw(_small_search(max_vertices=7))
        return g
    p = draw(st.integers(1, 7))
    jumps = draw(st.sets(st.integers(1, p // 2))) if p > 1 else set()
    return Graph(p, {(min(v, (v + j) % p), max(v, (v + j) % p))
                     for v in range(p) for j in jumps if (v + j) % p != v})


@settings(max_examples=200, deadline=None)
@given(g=_orbit_case())
def test_orbit_links_match_brute_force(g):
    # both plan builders: _orbits.py, and the kernel's when it loads
    plan = solver._plan(g)
    want = orbit_predecessors(g, plan.order)
    assert plan.orbit_prev == want, g
    if _kernel.load() is not None:
        c = _c_plan(g)
        assert (c.order, c.orbit_prev) == (plan.order, want), g


def _c_plan(g):
    """g's plan from the kernel's builder, read back as a solver._Plan."""
    return _kernel.load().plan(g)


# Graphs of 65 to 200 vertices, whose adjacency rows span 2 to 4 words of
# the kernel's plan builder.
LARGE_PLANS = [path(65), cycle(129), wheel_minus_spoke(64), wheel_minus_spoke(130), star(200),
               join(path(70), empty_graph(2)), join(cycle(65), empty_graph(2))]
LARGE_PLAN_IDS = ["path-65", "cycle-129", "h64", "h130", "star-200", "path-70-join-2",
                  "cycle-65-join-2"]


@pytest.mark.parametrize("g", LARGE_PLANS, ids=LARGE_PLAN_IDS)
def test_kernel_plan_equals_the_python_plan_past_one_word(c_backend, g):
    assert _c_plan(g) == solver._plan(g)


def test_kernel_plans_equal_the_python_plans_on_the_bench_graphs(c_backend):
    graphs = _bench_inputs().solve_graphs()
    assert len(graphs) == 12
    for name, g in graphs.items():
        assert _c_plan(g) == solver._plan(g), name


def test_kernel_plans_equal_the_python_plans_on_the_manifest_graphs(monkeypatch, c_backend):
    graphs = {g for g, _, _ in _manifest_searches(monkeypatch)}
    assert len(graphs) > 10
    for g in graphs:
        assert _c_plan(g) == solver._plan(g), g


@pytest.mark.parametrize("g", [path(1000), cycle(300)], ids=["path-1000", "cycle-300"])
def test_kernel_plans_of_long_paths_and_cycles_are_fast(c_backend, g):
    # about 0.04 s and 0.002 s on a 2-vCPU machine, where _plan takes 0.6 s
    # and 0.03 s; a degree-and-prefix filter that lets every candidate
    # through to a search takes cycle(300) to about 9 s
    start = time.perf_counter()
    _kernel.load().plan(g)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=st.integers(0, 70), seed=st.integers(0, 2**32 - 1))
def test_kernel_plan_equals_the_python_plan_on_random_graphs(c_backend, p, seed):
    g = random_graph(random.Random(seed), p)
    assert _c_plan(g) == solver._plan(g), g


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=st.integers(0, 70), density=st.floats(0.7, 0.9), seed=st.integers(0, 2**32 - 1))
def test_kernel_plan_equals_the_python_plan_on_dense_random_graphs(c_backend, p, density, seed):
    # many pairs with many common neighbours, so long common lists; nearer
    # to complete graphs, _orbits.py can take minutes on one graph
    rng = random.Random(seed)
    g = Graph(p, [(u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < density])
    assert _c_plan(g) == solver._plan(g), g


@st.composite
def _twin_blow_up(draw):
    """A random graph on 3 to 7 classes, each blown up into 1 to 3 twins
    (an independent set or a clique), with its vertices shuffled: many twin
    classes, some of them swapped by automorphisms of the class graph."""
    h = draw(st.integers(3, 7))
    pairs = [(u, v) for u in range(h) for v in range(u + 1, h)]
    links = draw(st.lists(st.sampled_from(pairs), unique=True))
    sizes = draw(st.lists(st.integers(1, 3), min_size=h, max_size=h))
    cliques = draw(st.lists(st.booleans(), min_size=h, max_size=h))
    members = [range(sum(sizes[:c]), sum(sizes[:c + 1])) for c in range(h)]
    edges = {(a, b) for u, v in links for a in members[u] for b in members[v]}
    edges |= {(a, b) for c in range(h) if cliques[c] for a in members[c] for b in members[c] if a < b}
    perm = draw(st.permutations(range(sum(sizes))))
    return Graph(len(perm), [(perm[a], perm[b]) for a, b in edges])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(g=Graph(9, [(0, 2), (0, 3), (0, 5), (0, 8), (1, 2), (1, 3), (1, 5), (1, 7), (1, 8),
                     (2, 4), (2, 6), (2, 7), (3, 4), (3, 6), (4, 5), (4, 7), (4, 8), (5, 6),
                     (6, 7), (6, 8)]))
@given(g=_twin_blow_up())
def test_kernel_plan_equals_the_python_plan_on_twin_blow_ups(c_backend, g):
    # an automorphism search that let two positions take one image would
    # pass the other graphs here, whose non-injective maps that keep every
    # adjacency only merge twins already merged; on these (the example
    # among them) it links positions no automorphism links
    assert _c_plan(g) == solver._plan(g), g


def _backend_calls(monkeypatch, *searches):
    """The arguments (plan, n_total, pins) that _find passes to _run_search
    in each of searches, run without the kernel."""
    calls = []
    run = solver._run_search
    with monkeypatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        m.setattr(solver, "_run_search", lambda *args: calls.append(args) or run(*args))
        for search in searches:
            search()
    return calls


def test_plan_of_c4_plus_2k1(monkeypatch):
    # cycle 0-1-2-3-0 joined to 4 and 5: every degree is 4, so the order is
    # the index order and each position's prior neighbours are its earlier
    # neighbours
    g = join(cycle(4), empty_graph(2))
    plan = solver._plan(g)
    assert plan.order == [0, 1, 2, 3, 4, 5]
    assert plan.deg == [4] * 6
    assert plan.pstart == [0, 0, 1, 2, 4, 8, 12]
    assert plan.prior == [0, 1, 0, 2, 0, 1, 2, 3, 0, 1, 2, 3]
    # one orbit; fixing 0 fixes its antipode 2 and leaves 1, 3, 4 and 5 one
    # orbit; fixing 0..3 still lets 4 and 5 swap
    assert plan.orbit_prev == [-1, 0, 0, 1, 1, 4]
    # window support: the edges among positions >= i (4-5 is no edge, so
    # none from 4 on), and the earlier positions with a neighbour at i or
    # later (all of them: 4 and 5 see the whole cycle)
    assert plan.inner == [12, 8, 5, 2, 0, 0]
    assert plan.ostart == [0, 0, 1, 3, 6, 10, 14]
    assert plan.open == [0, 0, 1, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3]
    # difference cut: the pairs a < b < i with c >= 2 common neighbours at
    # positions >= i.  At 2, 0 and 1 share 4 and 5; at 3, so do 1 and 2, and
    # 0 and 2 share 3, 4 and 5; at 4, all six pairs of the cycle share 4 and
    # 5; at 5, only 5 is left
    assert plan.cstart == [0, 0, 0, 3, 12, 30, 30]
    assert plan.common == [0, 1, 2,
                           0, 1, 2, 0, 2, 3, 1, 2, 2,
                           0, 1, 2, 0, 2, 2, 0, 3, 2, 1, 2, 2, 1, 3, 2, 2, 3, 2]
    # _solve adds N and the pinned labels: label 1 for find_sem, labels 1 and
    # N for deficiency's
    k1 = Graph(1, [])
    calls = _backend_calls(monkeypatch, lambda: find_sem(g, 2), lambda: solver._search(g, 2, 2, 2),
                           lambda: solver._search(k1, 1, 1, 2), lambda: solver._search(k1, 0, 0, 2))
    assert calls == [(plan, 8, 1), (plan, 8, 2),
                     # labels 1 and N are one label when N = 1
                     (solver._plan(k1), 2, 2), (solver._plan(k1), 1, 1)]


@settings(max_examples=200, deadline=None)
@given(p=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_plan_window_lists_match_their_definitions(p, seed):
    # inner[i] counts the edges joining two positions >= i,
    # open[ostart[i] .. ostart[i + 1]) lists, ascending, the positions < i
    # with a neighbour at a position >= i, and common[cstart[i] ..
    # cstart[i + 1]) the triples a, b, c, ascending by (a, b), of the
    # positions a < b < i with c >= 2 common neighbours at positions >= i
    g = random_graph(random.Random(seed), p)
    plan = solver._plan(g)
    pos = {v: i for i, v in enumerate(plan.order)}
    edges = [sorted((pos[u], pos[v])) for u, v in g.edges]
    nbrs = [{b for e in edges if a in e for b in e if b != a} for a in range(p)]
    assert (len(plan.inner), len(plan.ostart), plan.ostart[0]) == (p, p + 1, 0)
    assert (len(plan.cstart), plan.cstart[0]) == (p + 1, 0)
    for i in range(p):
        assert plan.inner[i] == sum(a >= i for a, _ in edges)
        assert plan.open[plan.ostart[i]:plan.ostart[i + 1]] == sorted(
            {a for a, b in edges if a < i <= b})
        shared = [(a, b, sum(v >= i for v in nbrs[a] & nbrs[b]))
                  for b in range(i) for a in range(b)]
        assert plan.common[plan.cstart[i]:plan.cstart[i + 1]] == [
            x for a, b, c in sorted(shared) if c >= 2 for x in (a, b, c)]


def test_plan_of_a_large_star_is_fast():
    # the open lists must take time linear in their length: rebuilt from
    # all earlier positions at every position, O(p^2), they take about 0.5 s
    # for this graph; the leaves are twins, so the orbit links need no
    # automorphism search
    start = time.perf_counter()
    plan = solver._plan(star(6000))
    assert time.perf_counter() - start < 0.3
    assert (plan.ostart, plan.open) == ([0, *range(6001)], [0] * 6000)


def test_complement_cut_keeps_label_ceil_n_over_2(c_backend):
    # P_3 U K_2 (path 3-0-4, edge 1-2) at N = 5: the centre of the path goes
    # first, and every witness gives it label 3, so both backends must offer
    # position 0 the labels 1..ceil(5/2), not 1..floor(5/2)
    g = Graph(5, [(0, 3), (0, 4), (1, 2)])
    assert solver._plan(g).order[0] == 0
    res = _assert_same_search(g, 0)
    assert (_labels(res), res.nodes) == ((3, 1, 5, 2, 4), 40)
    assert _labels(res) == least_sem_labeling(g, 0)


@pytest.mark.parametrize("g, t, nodes, nodes_both_pins", [
    (join(star(5), empty_graph(3)), 4, 1_786, 1_786),
    (join(path(5), empty_graph(3)), 5, 61_348, 49_512),
    (join(cycle(4), empty_graph(2)), 6, 2_461, 423),
    (join(cycle(3), empty_graph(4)), 3, 323, 274),
], ids=["star-5-join-3-t4", "path-5-join-3-t5", "cycle-4-join-2-t6", "cycle-3-join-4-t3"])
def test_twin_rule_node_counts(c_backend, g, t, nodes, nodes_both_pins):
    # find_sem pins label 1
    assert _assert_same_search(g, t).nodes == nodes
    # deficiency pins labels 1 and N
    assert _assert_same_search(g, t, pins=2).nodes == nodes_both_pins


@st.composite
def _twin_rich(draw):
    """(G + mK_1) U kK_1 with at most 9 vertices, and a filler count that
    keeps the labels at most 9."""
    p = draw(st.integers(1, 4))
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    joined = join(Graph(p, edges), empty_graph(draw(st.integers(1, 3))))
    g = Graph(joined.vertex_count + draw(st.integers(0, 2)), joined.edges)
    return g, draw(st.integers(0, 9 - g.vertex_count))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_twin_rich())
def test_twin_rule_keeps_witness_on_twin_rich_graphs(c_backend, case):
    g, t = case
    assert _labels(_assert_same_search(g, t)) == least_sem_labeling(g, t), (g, t)


# ---------------------------------------------------------------------------
# Backends: the compiled kernel against the Python reference _run_search
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_kernel():
    """Forget the loaded kernel before and after the test."""
    _kernel.load.cache_clear()
    yield
    _kernel.load.cache_clear()


@pytest.fixture
def c_backend():
    if _kernel.load() is None:
        pytest.skip("the C kernel cannot be built here (no cc, or it fails); "
                    "only the Python backend runs")


@contextlib.contextmanager
def _python_only():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        yield


def _pinned_search(g, t, pins):
    """find_sem(g, t) with the first pins of the labels 1 and p + t pinned,
    as a SearchResult: one backend call for t alone, unless find_sem settles
    the search without one."""
    if g.vertex_count == 0 or counting_lower_bound(g.vertex_count + t, g.q) > 0:
        return find_sem(g, t)
    _, witness, nodes, seconds, backend = solver._search(g, t, t, pins)
    return solver.SearchResult(witness, g.vertex_count + t, nodes, seconds, backend)


def _assert_same_search(g, t, pins=None):
    """The kernel's find_sem result, or with pins that of the search
    deficiency runs with those labels pinned, after checking that
    _run_search returns the same witness after the same number of nodes."""
    def search():
        if pins is None:
            return find_sem(g, t)
        return _pinned_search(g, t, pins)

    c = search()
    with _python_only():
        py = search()
    assert py.backend == "python"
    # searches that the counting bound or p == 0 settle place no label
    assert c.backend == ("c" if c.nodes else "python"), (g, t, pins)
    got = (c.witness and c.witness.labeling, c.nodes, c.total_labels)
    want = (py.witness and py.witness.labeling, py.nodes, py.total_labels)
    assert got == want, (g, t, pins)
    return c


def _manifest_calls(monkeypatch):
    """(graph, t0, t1, pins, t found or None) of every backend call the
    manifest's solver claims make, through find_sem (pins 1) or deficiency
    (pins 2)."""
    calls = []
    search = solver._search

    def recording(g, t0, t1, pins):
        out = search(g, t0, t1, pins)
        calls.append((g, t0, t1, pins, out[0]))
        return out

    with monkeypatch.context() as m:
        m.setattr(solver, "_search", recording)
        report = reproduce.run(selection={c.id for c in CLAIMS if c.kind.startswith("solver")})
    assert not report.failed
    return calls


def _manifest_searches(monkeypatch):
    """(graph, t, pins) of every search the manifest's solver claims make:
    each filler count of each backend call up to the one with a witness."""
    return [(g, t, pins) for g, t0, t1, pins, found in _manifest_calls(monkeypatch)
            for t in range(t0, (t1 if found is None else found) + 1)]


@pytest.mark.parametrize("pin_n", [True, False])
def test_backends_agree_on_oracle_corpus(c_backend, pin_n):
    # pin_n: the search deficiency runs, with labels 1 and N pinned, in place
    # of find_sem's, on the cases where deficiency runs it (t - 1 fails)
    for g, t in _corpus() + [(wheel_minus_spoke(6), 1), (join(path(4), empty_graph(3)), 2)]:
        if not pin_n:
            _assert_same_search(g, t)
        elif t == 0 or least_sem_labeling(g, t - 1) is None:
            assert _labels(_assert_same_search(g, t, pins=2)) == least_sem_labeling(g, t), (g, t)


@pytest.mark.parametrize("pin_n", [True, False])
def test_backends_agree_on_manifest_searches(monkeypatch, c_backend, pin_n):
    # pin_n: each deficiency search rerun with labels 1 and N pinned, instead
    # of every recorded search rerun as find_sem
    calls = _manifest_searches(monkeypatch)
    assert len(calls) > 20
    assert {pins for _, _, pins in calls} == {1, 2}
    for g, t, pins in calls:
        if not pin_n:
            assert _labels(_assert_same_search(g, t)) == least_sem_labeling(g, t), (g, t)
        elif pins == 2:
            # deficiency searches t only once t - 1 fails
            assert _labels(_assert_same_search(g, t, pins=2)) == least_sem_labeling(g, t), (g, t)


@st.composite
def _small_search(draw, max_vertices=8):
    """(G1 U G2 U kK_1, t) with at most max_vertices vertices and at most 11
    labels.
    With two components and isolated vertices, positions with no edge left
    among the later ones (inner = 0) and positions with no earlier one
    still open (empty open) both occur often."""
    sizes = [draw(st.integers(1, max_vertices))]
    sizes.append(draw(st.integers(0, max_vertices - sizes[0])))
    edges, base = [], 0
    for size in sizes:
        pairs = [(base + u, base + v) for u in range(size) for v in range(u + 1, size)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges += [e for e, k in zip(pairs, keep) if k]
        base += size
    g = Graph(base + draw(st.integers(0, max_vertices - base)), edges)
    return g, draw(st.integers(0, 11 - g.vertex_count))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_small_search())
def test_backends_agree_with_the_oracle_on_small_searches(c_backend, case):
    g, t = case
    assert _labels(_assert_same_search(g, t)) == least_sem_labeling(g, t), (g, t)


def _assert_same_deficiency(g, cap):
    """The kernel's deficiency outcome, after checking that _run_search gives
    the same deficiency and witness after the same number of nodes."""
    c = deficiency(g, cap)
    with _python_only():
        py = deficiency(g, cap)
    got = (c.deficiency, c.witness and c.witness.labeling, c.nodes)
    want = (py.deficiency, py.witness and py.witness.labeling, py.nodes)
    assert got == want, (g, cap)
    return c


def _least_deficiency(g, cap):
    """(deficiency, least witness labels) from the oracle, filler count by
    filler count from 0; (None, None) past cap."""
    for t in range(cap + 1):
        least = least_sem_labeling(g, t)
        if least is not None:
            return t, least
    return None, None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("cases", [_small_search(), _twin_rich()], ids=["small", "twin-rich"])
def test_pinned_deficiency_matches_the_oracle(c_backend, cases, data):
    g, cap = data.draw(cases)
    out = _assert_same_deficiency(g, cap)
    assert (out.deficiency, _labels(out)) == _least_deficiency(g, cap), (g, cap)


def test_deficiency_node_count_of_c4_plus_2k1(c_backend):
    # 17,081 nodes with neither label 1 nor N pinned, and 1,849 without the
    # difference cut
    out = _assert_same_deficiency(join(cycle(4), empty_graph(2)), 6)
    assert (out.deficiency, out.nodes, out.backend) == (None, 1_754, "c")


@pytest.mark.parametrize("search, ns, call", [
    (lambda g: deficiency(g, 6), [8, 9, 10, 11, 12], (2, 6, 2)),
    (lambda g: find_sem(g, 6), [12], (6, 6, 1)),
], ids=["deficiency", "find_sem"])
def test_each_call_builds_the_plan_once(monkeypatch, search, ns, call):
    # without the kernel, each call is one _solve with the arguments t0, t1
    # and pins of call, whose searches share one _plan, from one orbit
    # computation
    g = join(cycle(4), empty_graph(2))
    orbits, orbit_prev = [], _orbits.orbit_prev
    solves, solve = [], solver._solve
    monkeypatch.setattr(_orbits, "orbit_prev", lambda adj: orbits.append(adj) or orbit_prev(adj))
    monkeypatch.setattr(solver, "_solve", lambda *args: solves.append(args) or solve(*args))
    calls = _backend_calls(monkeypatch, lambda: search(g))
    assert (len(orbits), solves) == (1, [(g, *call)])
    assert [n for _, n, _ in calls] == ns
    assert all(plan is calls[0][0] for plan, *_ in calls)
    monkeypatch.undo()
    assert calls[0][0] == solver._plan(g)
    # with it, one semdef_solve call, which builds the plan in C: no Python
    # plan, and the kernel's own plan is not called apart
    kernel = _kernel.load()
    if kernel is None:
        return
    assert solver._kernel is _kernel  # imported once, at the first search
    solves = []
    fail = lambda *args: pytest.fail("a plan or a search outside the one kernel call")  # noqa: E731
    monkeypatch.setattr(_kernel, "load", lambda: _kernel.Kernel(
        fail, lambda *args: solves.append(args) or kernel.solve(*args)))
    monkeypatch.setattr(solver, "_plan", fail)
    monkeypatch.setattr(solver, "_solve", fail)
    out = search(g)
    assert (out.backend, solves) == ("c", [(g, *call)])


def test_label_n_is_pinned_only_where_t_minus_1_fails():
    # D(H_5) = 1, so at t = 2 the least witness fits in 1..N-1 like the t = 1
    # one; pinning N there finds another labeling.  deficiency pins N only
    # where t - 1 has no witness.
    g, n_total = wheel_minus_spoke(5), 8
    assert deficiency(g, 2).deficiency == 1
    least = find_sem(g, 2).witness.labeling.labels
    assert least == least_sem_labeling(g, 2)
    assert least == (1, 7, 3, 6, 2, 4) and n_total not in least
    pinned = solver._search(g, 2, 2, 2)[1].labeling.labels
    assert pinned == (1, 4, 6, 8, 5, 7)


@pytest.mark.parametrize("flags", [(), ("-O0",)], ids=["CFLAGS", "O0"])
def test_kernel_compiles_without_warnings(tmp_path, flags):
    # the build load() makes, its one cc command, with the warnings that
    # need the optimiser too; at -O0 a helper marked always_inline that
    # cannot be inlined is an error
    import shutil

    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    _kernel.build(_kernel.SOURCE, tmp_path / "_dfs.so", "-std=c99", "-Wall", "-Wextra", "-Werror",
                  *flags)


@pytest.mark.parametrize("machine, flags, popcnt", [
    ("x86_64", "flags\t\t: fpu sse2 popcnt avx2\n", True),
    ("x86_64", "flags\t\t: fpu sse2\n", False),
    ("x86_64", "flags\t\t: fpu popcntx\n", False),
    ("x86_64", "", False),  # no /proc/cpuinfo
    ("aarch64", "flags\t\t: popcnt\n", False),
], ids=["x86-popcnt", "x86-without", "x86-other-flag", "x86-no-cpuinfo", "arm"])
def test_popcount_flag_only_where_the_cpu_reports_it(monkeypatch, machine, flags, popcnt):
    # -mpopcnt is added on an x86-64 whose CPU reports popcnt, never
    # elsewhere, and that build has a cache file of its own
    monkeypatch.setattr(_kernel, "_cpu", lambda: (machine, flags))
    assert _kernel.cflags() == _kernel.CFLAGS + (("-mpopcnt",) if popcnt else ())
    path = _kernel.library_path()
    monkeypatch.setattr(_kernel, "_cpu", lambda: ("", ""))
    assert _kernel.cflags() == _kernel.CFLAGS
    assert (_kernel.library_path() != path) == popcnt


def test_cpu_probe_reads_this_machine():
    machine, flags = _kernel._cpu()
    assert flags == "" or flags.startswith("flags")
    if machine != "x86_64":
        assert _kernel.cflags() == _kernel.CFLAGS


def test_kernel_without_popcount_matches_the_loaded_kernel(c_backend, monkeypatch, tmp_path):
    # the portable build, built as test_kernel_compiles_without_warnings
    # builds, takes the same nodes to the same outcome as the loaded build
    # (with -mpopcnt where the CPU has it) on the bench's 26 solve searches
    lib = tmp_path / "_dfs.so"
    monkeypatch.setattr(_kernel, "_cpu", lambda: ("", ""))
    _kernel.build(_kernel.SOURCE, lib, "-std=c99", "-Wall", "-Wextra", "-Werror")
    monkeypatch.undo()
    kernels = [_kernel.load(), _kernel.open_build(lib)]
    searches = [(g, t) for name, *_ in _bench_inputs().SOLVE_INSTANCES
                for g, cap in [_solve_instance(name)]
                for t in range(counting_lower_bound(g.vertex_count, g.q), cap + 1)]
    assert len(searches) == 26
    results = [[k.solve(g, t, t, 2) for g, t in searches] for k in kernels]
    assert results[0] == results[1]
    assert sum(nodes for *_, nodes in results[0]) == 98_891


def test_backends_agree_on_the_bench_solve_calls(c_backend):
    # each backend's one entry, called as deficiency calls it on the bench's
    # 12 solve instances (counting bound..cap, labels 1 and N pinned): the
    # same deficiency, witness per vertex and node total
    graphs = _bench_inputs().solve_graphs()
    calls = [(graphs[name], cap) for name, *_, cap in _bench_inputs().SOLVE_INSTANCES]
    calls = [(g, counting_lower_bound(g.vertex_count, g.q), cap) for g, cap in calls]
    got = [_kernel.load().solve(g, t0, cap, 2) for g, t0, cap in calls]
    assert got == [solver._solve(g, t0, cap, 2) for g, t0, cap in calls]
    assert (len(got), sum(nodes for *_, nodes in got)) == (12, 98_891)


def test_backends_agree_on_the_manifest_solver_calls(monkeypatch, c_backend):
    # each backend's one entry, on every call the manifest's solver claims
    # make: the same t found, witness per vertex and node total
    calls = _manifest_calls(monkeypatch)
    assert {pins for *_, pins, _ in calls} == {1, 2}
    kernel = _kernel.load()
    for g, t0, t1, pins, found in calls:
        got = kernel.solve(g, t0, t1, pins)
        assert (got[0], got) == (found, solver._solve(g, t0, t1, pins)), (g, t0, t1, pins)


def test_kernel_plan_buffer_holds_the_plan_fields(c_backend):
    # semdef_plan writes _Plan's fields in order after p, as its comment
    # lists them, and the module's plan reads them back in that order; a
    # field added on one side only fails here
    import re

    layout = re.search(r"_Plan's fields in order after p:(.*?);", _kernel.SOURCE.read_text(),
                       re.S)[1]
    assert re.findall(r"(?:^|,)\s*(\w+)", layout) == ["p", *solver._Plan._fields]
    g = join(cycle(4), empty_graph(2))
    assert _kernel.load().plan(g) == solver._Plan(
        [0, 1, 2, 3, 4, 5], [4] * 6, [0, 0, 1, 2, 4, 8, 12], [0, 1, 0, 2, 0, 1, 2, 3, 0, 1, 2, 3],
        [-1, 0, 0, 1, 1, 4], [12, 8, 5, 2, 0, 0], [0, 0, 1, 3, 6, 10, 14],
        [0, 0, 1, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3], [0, 0, 0, 3, 12, 30, 30],
        [0, 1, 2,
         0, 1, 2, 0, 2, 3, 1, 2, 2,
         0, 1, 2, 0, 2, 2, 0, 3, 2, 1, 2, 2, 1, 3, 2, 2, 3, 2]) == solver._plan(g)


def test_deficiency_converts_its_plan_once(c_backend, child_env):
    # in a fresh interpreter, deficiency(C_4+2K_1, 6) hands the kernel the
    # graph once, in one semdef_solve call that builds the plan and searches
    # it at t = 2..6; the plan, orbit links included, comes from C, so
    # _orbits is never imported, and neither is _kernel anew
    import subprocess
    import sys

    code = ("import sys\n"
            "from semdef import _kernel, solver\n"
            "from semdef.graphs import cycle, empty_graph, join\n"
            "kernel = _kernel.load()\n"
            "solves = []\n"
            "_kernel.load = lambda: _kernel.Kernel(None,\n"
            "    lambda *args: solves.append(args[1:]) or kernel.solve(*args))\n"
            "out = solver.deficiency(join(cycle(4), empty_graph(2)), 6)\n"
            "del sys.modules['semdef._kernel']\n"
            "again = solver.deficiency(join(cycle(4), empty_graph(2)), 6)\n"
            "print(out.deficiency, out.nodes, out.backend, again.nodes, solves,\n"
            "      'semdef._orbits' in sys.modules, 'semdef._kernel' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env, check=True, timeout=120).stdout
    assert out.split() == ["None", "1754", "c", "1754", "[(2,", "6,", "2),", "(2,", "6,", "2)]",
                           "False", "False"]


def test_window_support_cut_refutes_h14(c_backend):
    # 42,388,556 nodes without the cut, 1,398,524 with it but no pinned label,
    # 1,260,052 with label 1 pinned and only the lowest and the highest
    # unrealized forced sum checked, and 205,097 checking every one of them
    res = find_sem(wheel_minus_spoke(14), 0)
    assert (res.witness, res.nodes, res.backend) == (None, 205_097, "c")


def test_window_support_checks_the_middle_forced_sums(c_backend):
    # C_4 as 2K_1 + 2K_1 with labels 1..4: entering position 2 with labels 1
    # and 4 (or 2 and 3) on the first side, no sum is realized and the sums
    # 4..6 lie in every window.  The free labels 2 and 3 (or 1 and 4) reach
    # 3, 4, 6 and 7, so both ends are realizable and 5 is not.  Both backends
    # prune there: checking only the ends gives 7 nodes.  The difference
    # cut prunes the other labels of the first side, whose two free labels
    # differ by the difference of theirs (8 nodes and 10 without it).
    g = join(empty_graph(2), empty_graph(2))
    # at position 2 both placed labels are open and no edge joins 2 and 3
    plan = solver._plan(g)
    assert (plan.open[plan.ostart[2]:plan.ostart[3]], plan.inner[2]) == ([0, 1], 0)
    res = _assert_same_search(g, 0)
    assert (res.witness, res.nodes) == (None, 5)


# ---------------------------------------------------------------------------
# Difference cut: a < b assigned, c common neighbours unassigned
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(m=st.integers(0, 2**10 - 1), d=st.integers(1, 11), c=st.integers(0, 7))
def test_spread_is_the_largest_subset_without_the_difference(m, d, c):
    members = [x for x in range(10) if m >> x & 1]
    best = max(len(sub) for r in range(len(members) + 1)
               for sub in itertools.combinations(members, r)
               if all(y - x != d for x, y in itertools.combinations(sub, 2)))
    assert solver._spread_reaches(m, d, c) == (best >= c)


def _prefix_states(g, t, labels):
    """_differences_fit's arguments on entering each position of g's plan
    at N = p + t, the positions before it labelled by labels, labels per
    vertex: the position's triples, the labels per position, and the free
    labels and the realized sums as bitsets (bit x for x)."""
    plan = solver._plan(g)
    pos = {v: i for i, v in enumerate(plan.order)}
    at = [labels[v] for v in plan.order]
    for i in range(g.vertex_count):
        free = sum(1 << x for x in range(1, g.vertex_count + t + 1) if x not in at[:i])
        seen = sum(1 << labels[u] + labels[v] for u, v in g.edges if max(pos[u], pos[v]) < i)
        yield plan.common[plan.cstart[i]:plan.cstart[i + 1]], at, free, seen


@settings(max_examples=150, deadline=None)
@example(case=(join(path(4), empty_graph(3)), 2))
@given(case=st.one_of(_small_search(), _twin_rich()))
def test_difference_cut_passes_every_prefix_of_a_witness(case):
    # every SEM labeling meets the cut at every prefix along the plan order,
    # the least witness and its complement among them, so no cut drops one
    g, t = case
    least = least_sem_labeling(g, t)
    if least is None:
        return
    n_total = g.vertex_count + t
    for labels in (least, [n_total + 1 - x for x in least]):
        for state in _prefix_states(g, t, labels):
            assert solver._differences_fit(*state), (g, t, labels)


def test_difference_cut_prunes_a_prefix_of_c4():
    # C_4 as 2K_1 + 2K_1 at N = 4, labels 1 and 2 on one side: the other
    # side's two vertices need two of the free 3 and 4, which differ by 1,
    # so 3 + 2 = 4 + 1 would repeat
    g = join(empty_graph(2), empty_graph(2))
    cut = list(_prefix_states(g, 0, [1, 2, 3, 4]))[2]
    kept = list(_prefix_states(g, 0, [1, 4, 2, 3]))[2]
    assert cut[0] == kept[0] == [0, 1, 2]
    assert not solver._differences_fit(*cut) and solver._differences_fit(*kept)


# Least witnesses of find_sem, pinned from the oracle, each lost by a
# mutant of the difference cut below: P_2+2K_1, C_3+4K_1, and a graph on 8
# vertices found by a random sweep.
DIFFERENCE_CUT_WITNESSES = [
    (join(path(2), empty_graph(2)), 0, (1, 4, 2, 3)),
    (join(cycle(3), empty_graph(4)), 4, (1, 6, 11, 2, 3, 4, 5)),
    (Graph(8, [(0, 1), (0, 4), (0, 6), (0, 7), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4),
               (3, 5), (4, 6), (4, 7), (5, 6), (5, 7)]), 2, (4, 3, 7, 9, 1, 8, 5, 10)),
]


def test_difference_cut_keeps_the_pinned_witnesses():
    for g, t, labels in DIFFERENCE_CUT_WITNESSES:
        assert least_sem_labeling(g, t) == labels
        with _python_only():
            assert _labels(find_sem(g, t)) == labels
        if _kernel.load() is not None:
            assert _labels(_assert_same_search(g, t)) == labels


def _pinned_witnesses(kernel=None):
    """The find_sem witness of each DIFFERENCE_CUT_WITNESSES search, by
    _run_search, or by the given kernel."""
    out = []
    for g, t, _ in DIFFERENCE_CUT_WITNESSES:
        if kernel is None:
            with _python_only():
                out.append(_labels(find_sem(g, t)))
            continue
        _, labels, _ = kernel.solve(g, t, t, 1)
        out.append(labels and tuple(labels))
    return out


# The difference cut with d + 1 for d, or c + 1 for c: as solver._spread_reaches
# wrappers, and as edits of _dfs.c's spread and of its call in rec.
DIFFERENCE_CUT_MUTANTS = {
    "d-plus-1": (lambda spread: lambda m, d, c: spread(m, d + 1, c),
                 "fa > fb ? fa - fb : fb - fa,", "(fa > fb ? fa - fb : fb - fa) + 1,"),
    "c-plus-1": (lambda spread: lambda m, d, c: spread(m, d, c + 1),
                 "s->plan.common[k + 2]))", "s->plan.common[k + 2] + 1))"),
}


@pytest.mark.parametrize("mutant", DIFFERENCE_CUT_MUTANTS)
def test_difference_cut_mutants_lose_a_pinned_witness(monkeypatch, mutant):
    wrap, _, _ = DIFFERENCE_CUT_MUTANTS[mutant]
    want = [labels for _, _, labels in DIFFERENCE_CUT_WITNESSES]
    assert _pinned_witnesses() == want
    monkeypatch.setattr(solver, "_spread_reaches", wrap(solver._spread_reaches))
    assert _pinned_witnesses() != want


@pytest.mark.parametrize("mutant", DIFFERENCE_CUT_MUTANTS)
def test_kernel_difference_cut_mutants_lose_a_pinned_witness(c_backend, tmp_path, mutant):
    _, old, new = DIFFERENCE_CUT_MUTANTS[mutant]
    text = _kernel.SOURCE.read_text()
    assert text.count(old) == 1
    source, lib = tmp_path / "_dfs.c", tmp_path / "_dfs.so"
    source.write_text(text.replace(old, new))
    _kernel.build(source, lib)
    want = [labels for _, _, labels in DIFFERENCE_CUT_WITNESSES]
    assert _pinned_witnesses(_kernel.load()) == want
    assert _pinned_witnesses(_kernel.open_build(lib)) != want


# Searches whose labels and edge sums 3..2N-1 spread over two or three of
# the kernel's 64-bit words: (graph, t, nodes of find_sem on both backends,
# whether a witness exists), with N = p + t of 36, 69, 68, 68, 66 and 72.
# In the last two, c common neighbours of the first two positions leave
# fewer than 2c - 1 labels, so the difference cut counts runs of labels
# spread over two words.
WORD_BOUNDARY = [
    (join(cycle(4), empty_graph(2)), 30, 37_398, False),
    (join(path(4), empty_graph(3)), 62, 54_565, True),
    (wheel_minus_spoke(5), 62, 2_379, True),
    (join(cycle(5), empty_graph(1)), 62, 7_018, True),
    (join(empty_graph(2), empty_graph(64)), 0, 1_650, False),
    (join(path(2), empty_graph(70)), 2, 142, True),
]


@pytest.mark.parametrize("g, t, nodes, found", WORD_BOUNDARY,
                         ids=["cycle-4-join-2-t30", "path-4-join-3-t62", "h5-t62",
                              "cycle-5-join-1-t62", "k2-64-t0", "path-2-join-70-t2"])
def test_backends_agree_past_word_boundaries(c_backend, g, t, nodes, found):
    res = _assert_same_search(g, t, pins=1)
    assert (res.nodes, res.witness is not None) == (nodes, found)


# Run in a child interpreter: reads [[kind, graph JSON, t], ...] on stdin,
# runs find_sem(g, t) with no label limit (kind "find") or deficiency(g, t),
# and prints [backend, nodes, witness total labels, witness labels] per
# search as JSON, the last two null without a witness; kind "plan" builds
# g's plan alone with the kernel and prints its fields.  Given a path, it
# loads the kernel from that file and exits 77 if it cannot.
_CHILD_SEARCHES = """
import json, sys
from pathlib import Path
from semdef import _kernel
from semdef.graphs import Graph
from semdef.solver import deficiency, find_sem
if len(sys.argv) > 1:
    _kernel.library_path = lambda: Path(sys.argv[1])
    if _kernel.load() is None:
        sys.exit(77)
out = []
for kind, data, t in json.load(sys.stdin):
    g = Graph.from_json_dict(data)
    if kind == "plan":
        out.append(list(_kernel.load().plan(g)))
        continue
    res = find_sem(g, t) if kind == "find" else deficiency(g, t)
    lab = res.witness and res.witness.labeling
    out.append([res.backend, res.nodes, lab and lab.total_labels, lab and list(lab.labels)])
print(json.dumps(out))
"""


def _searches_in_child(env, searches, timeout, library=None):
    """The finished child that ran searches, (kind, graph, t) triples, with
    _CHILD_SEARCHES; a child still running after timeout seconds is killed
    and fails the test with subprocess.TimeoutExpired."""
    import json
    import subprocess
    import sys

    payload = json.dumps([[kind, g.to_json_dict(), t] for kind, g, t in searches])
    args = [sys.executable, "-c", _CHILD_SEARCHES, *([str(library)] if library else [])]
    return subprocess.run(args, input=payload, capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("g", [star(200), join(path(2), empty_graph(150))],
                         ids=["star-200", "path-2-join-150"])
def test_kernel_tables_hold_hundreds_of_labels(c_backend, child_env, g):
    # each witness takes milliseconds; the 200 leaves of the star are one
    # orbit, so a slip in the orbit rule can turn its search into one that
    # runs for minutes or more, and the time limit makes that a failure
    import json

    proc = _searches_in_child(child_env, [("find", g, 0)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    [(backend, _, total_labels, labels)] = json.loads(proc.stdout)
    assert backend == "c" and total_labels == g.vertex_count
    assert isinstance(verify_sem(g, Labeling(labels, total_labels)), SemCertificate)


def _bench_inputs():
    """bench/inputs.py, loaded as a module."""
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).parents[1] / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _solve_instance(name):
    """(graph, cap) of the solve instance name in bench/inputs.py."""
    [(_, family, n, m, cap)] = [i for i in _bench_inputs().SOLVE_INSTANCES if i[0] == name]
    return make_family(FamilyDescriptor(family, n=n, m=m)), cap


def _sanitized_kernel(tmp_path, sanitizer):
    """The kernel built with -fsanitize=sanitizer, aborting on the first
    error; the test is skipped when cc cannot build it."""
    import shutil

    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    lib = tmp_path / f"_dfs_{sanitizer}.so"
    try:
        _kernel.build(_kernel.SOURCE, lib, f"-fsanitize={sanitizer}", "-fno-sanitize-recover=all")
    except OSError as exc:
        pytest.skip(f"cc cannot build with -fsanitize={sanitizer}: {exc}")
    return lib


def _assert_clean_child_searches(env, lib, searches):
    """Run searches in a child on the kernel build lib, and check that it
    exits cleanly with the results of this process: the C backend's nodes
    and witnesses, and for a plan, _plan's fields."""
    import json

    proc = _searches_in_child(env, searches, timeout=300, library=lib)
    if proc.returncode == 77:
        pytest.skip("the sanitized build does not load (no sanitizer runtime)")
    assert proc.returncode == 0, proc.stderr[-2000:]
    want = []
    for kind, g, t in searches:
        if kind == "plan":
            want.append(list(map(list, solver._plan(g))))
        else:
            r = find_sem(g, t) if kind == "find" else deficiency(g, t)
            want.append(["c", r.nodes, r.witness and list(r.witness.labeling.labels)])
    assert [row if kind == "plan" else [row[0], row[1], row[3]]
            for (kind, _, _), row in zip(searches, json.loads(proc.stdout))] == want


# Plans alone for the sanitized builds: WORD_BOUNDARY's graphs have at most
# 72 vertices, so their adjacency reaches a second word only just.
_LARGE_PLAN_BUILDS = [("plan", g, None) for g in LARGE_PLANS]

# deficiency calls whose one kernel call searches on tables for more labels
# than the search uses, and regrows them: C_4+2K_1 exhausts t = 2..30
# (N = 8..36) on tables for 16, 34 and 36 labels, one bitset word and then
# two, and P_4+3K_1 finds D = 2 at N = 9 on tables for 18 labels.
_TABLES_PAST_THE_SEARCH = [("deficiency", join(cycle(4), empty_graph(2)), 30),
                           ("deficiency", join(path(4), empty_graph(3)), 40)]


def test_kernel_runs_clean_under_ubsan(c_backend, child_env, tmp_path):
    # shifts by 64 or more and right shifts of negative ints are the slips
    # word bitsets invite; the sanitized build aborts on the first one
    lib = _sanitized_kernel(tmp_path, "undefined")
    g, cap = _solve_instance("C8+2K1")
    searches = [("find", h, t) for h, t, _, _ in WORD_BOUNDARY] + [("deficiency", g, cap)]
    _assert_clean_child_searches(child_env, lib,
                                 searches + _TABLES_PAST_THE_SEARCH + _LARGE_PLAN_BUILDS)


def test_kernel_runs_clean_under_asan(c_backend, child_env, tmp_path):
    # a read or write past a bitset, a completion row, the Search struct or
    # a plan buffer, as a slip in the downward walk of the free labels, in a
    # buffer offset or in an adjacency word index would make, aborts the
    # sanitized build; the interpreter is not built with ASan, so its
    # runtime is preloaded
    import subprocess
    from pathlib import Path

    lib = _sanitized_kernel(tmp_path, "address")
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not Path(runtime).is_file():
        pytest.skip("no ASan runtime (libasan.so) beside cc")
    env = {**child_env, "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
    searches = [("find", h, t) for h, t, _, _ in WORD_BOUNDARY]
    _assert_clean_child_searches(env, lib, searches + _TABLES_PAST_THE_SEARCH + _LARGE_PLAN_BUILDS)


def test_kernel_out_of_memory_is_a_limit(c_backend, child_env, tmp_path):
    # K_{1,6000} needs 6001 * 6002 completion sums, 288 MB (275 MiB), which a
    # 256 MiB address space cannot hold, whatever else the process maps:
    # solve reports a limit and exits 4, where a traceback would exit 1, the
    # code of a rejected certificate
    import json
    import subprocess
    import sys

    graph_path = tmp_path / "star.json"
    graph_path.write_text(json.dumps(star(6000).to_json_dict()))
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
             "from semdef.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", child, "solve", "--graph", str(graph_path),
                           "--cap", "0", "--max-labels", "7000"],
                          capture_output=True, text=True, env=child_env, timeout=120)
    assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr[-2000:]
    assert proc.stderr == ("limit: the search kernel could not allocate its completion "
                           "tables for 6001 vertices\n")


def test_kernel_plan_out_of_memory_is_a_limit(c_backend, child_env, tmp_path):
    # K_{200,2000}: each of the 19,900 pairs of the 200 hubs shares the
    # 2,000 others, so the common lists hold about 40 M triples, 477 MB,
    # which a 256 MiB address space cannot hold: the plan builder alone
    # raises the limit, and so does solve's one kernel call, which exits 4
    # (the counting bound is t = 197,802)
    import json
    import subprocess
    import sys

    g = join(empty_graph(200), empty_graph(2000))
    graph_path = tmp_path / "k200.json"
    graph_path.write_text(json.dumps(g.to_json_dict()))
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
             "from semdef import _kernel\n"
             "from semdef.cli import main\n"
             "from semdef.graphs import empty_graph, join\n"
             "from semdef.solver import SearchLimitError\n"
             "try:\n"
             "    _kernel.load().plan(join(empty_graph(200), empty_graph(2000)))\n"
             "except SearchLimitError as exc:\n"
             "    print(exc)\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", child, "solve", "--graph", str(graph_path),
                           "--cap", "197802", "--max-labels", "200002"],
                          capture_output=True, text=True, env=child_env, timeout=120)
    limit = "the search kernel could not allocate the plan of 2200 vertices\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, limit, f"limit: {limit}")


def test_seconds_leave_out_the_kernel_load(monkeypatch, c_backend):
    g = join(star(3), empty_graph(2))
    want_res, want_out = find_sem(g, 2), deficiency(g, 3)
    load = _kernel.load

    def slow_load():
        time.sleep(0.2)
        return load()

    monkeypatch.setattr(_kernel, "load", slow_load)
    res, out = find_sem(g, 2), deficiency(g, 3)
    assert res.seconds < 0.2 and out.seconds < 0.2
    assert (res.nodes, res.witness, res.backend) == (
        want_res.nodes, want_res.witness, want_res.backend)
    assert (out.deficiency, out.nodes, out.witness, out.backend) == (
        want_out.deficiency, want_out.nodes, want_out.witness, want_out.backend)


def _break_source(monkeypatch, tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(_kernel, "SOURCE", bad)


def _no_compiler(monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))


def _no_python_headers(monkeypatch, tmp_path):
    import sysconfig

    monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(tmp_path / "include")})


def _unwritable_cache(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_kernel, "CACHE_DIR", blocker / "cache")


def _corrupt_library(monkeypatch, tmp_path):
    _kernel.library_path().write_bytes(b"not a shared library")


@pytest.mark.parametrize(
    "breakage", [_break_source, _no_compiler, _no_python_headers, _unwritable_cache,
                 _corrupt_library]
)
def test_failed_build_falls_back_to_python(monkeypatch, tmp_path, fresh_kernel, breakage):
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    (tmp_path / "cache").mkdir()
    breakage(monkeypatch, tmp_path)
    with _python_only():
        want = deficiency(wheel_minus_spoke(5), 2)
    got = deficiency(wheel_minus_spoke(5), 2)
    assert got.backend == "python"
    assert (got.deficiency, got.witness.labeling, got.nodes) == (
        want.deficiency, want.witness.labeling, want.nodes)
    assert [p.name for p in (tmp_path / "cache").iterdir()] in ([], [_kernel.library_path().name])


@pytest.mark.parametrize("breakage", [None, _no_compiler], ids=["python-only", "no-compiler"])
def test_deep_searches_run_without_the_kernel(monkeypatch, tmp_path, fresh_kernel, breakage):
    # _run_search keeps its own stack, so the 1,101 positions of K_{1,1100}
    # meet no recursion limit; the least witness, which the kernel returns
    # too, labels the centre 1 and the leaves 2..1101, one node per position
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    with _python_only() if breakage is None else contextlib.nullcontext():
        if breakage is not None:
            breakage(monkeypatch, tmp_path)
        for search in (find_sem, deficiency):
            res = search(star(1100), 0)
            assert (res.backend, res.nodes) == ("python", 1_101)
            assert list(res.witness.labeling.labels) == list(range(1, 1_102))


def test_backends_agree_on_a_deep_search_that_backtracks(c_backend):
    # K_{1,1100}+K_1 at t=0: 1,102 positions and 2,202 nodes, so both
    # backends leave and re-enter positions far past a thousand deep
    res = _assert_same_search(join(star(1100), empty_graph(1)), 0, pins=1)
    assert res.nodes == 2_202


def test_python_search_memory_stays_small(child_env):
    # a suspended position keeps no list of free labels or degrees, so
    # find_sem(K_{1,2000}) in _run_search peaks at about 17 MB resident.
    # The child reads its peak as VmHWM: ru_maxrss would carry over the
    # peak of this process, which it was forked from, across exec.
    import subprocess
    import sys
    from pathlib import Path

    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status to read the peak resident size from")
    code = ("import re\n"
            "from pathlib import Path\n"
            "from semdef import _kernel\n"
            "from semdef.graphs import star\n"
            "from semdef.solver import find_sem\n"
            "_kernel.load = lambda: None\n"
            "res = find_sem(star(2000), 0)\n"
            "status = Path('/proc/self/status').read_text()\n"
            "print(res.backend, res.nodes, re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env, check=True, timeout=120).stdout.split()
    assert out[:2] == ["python", "2001"]
    assert int(out[2]) < 60 * 1024


def test_kernel_is_cached_by_source_hash(monkeypatch, tmp_path, fresh_kernel, c_backend):
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    _kernel.load.cache_clear()
    assert _kernel.load() is not None
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [_kernel.library_path().name]
    # a cache hit needs no compiler
    _kernel.load.cache_clear()
    monkeypatch.setenv("PATH", str(tmp_path))
    assert _kernel.load() is not None
    assert find_sem(wheel_minus_spoke(5), 1).backend == "c"
    # an edited source gets a build of its own
    before = _kernel.library_path()
    edited = tmp_path / "edited.c"
    edited.write_bytes(_kernel.SOURCE.read_bytes() + b"/* edited */\n")
    monkeypatch.setattr(_kernel, "SOURCE", edited)
    assert _kernel.library_path() != before


def test_build_removes_this_interpreters_older_builds(monkeypatch, tmp_path, fresh_kernel,
                                                      c_backend):
    # a new build replaces this interpreter's older build in the cache, and
    # a build named before the interpreter suffix was added, and leaves the
    # build of another interpreter, which it cannot load
    from importlib.machinery import EXTENSION_SUFFIXES

    cache = tmp_path / "cache"
    cache.mkdir()
    older = cache / f"_dfs-00000000{EXTENSION_SUFFIXES[0]}"
    unsuffixed = cache / "_dfs-0badcafe.so"
    other = cache / "_dfs-00000000.other-interpreter.so"
    older.write_bytes(b"an older build")
    unsuffixed.write_bytes(b"a build named before the suffix")
    other.write_bytes(b"another interpreter's build")
    monkeypatch.setattr(_kernel, "CACHE_DIR", cache)
    _kernel.load.cache_clear()
    assert _kernel.load() is not None
    assert find_sem(wheel_minus_spoke(5), 1).backend == "c"
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [_kernel.library_path().name, other.name])


def test_kernel_is_cached_by_its_flags(monkeypatch):
    # a build with other flags, the same source otherwise, gets a path of
    # its own, so a cached build with the old flags is never loaded
    before = _kernel.library_path()
    monkeypatch.setattr(_kernel, "CFLAGS", (*_kernel.CFLAGS, "-DSEMDEF_EDITED"))
    assert _kernel.library_path() != before
    monkeypatch.undo()
    assert _kernel.library_path() == before


def test_kernel_is_not_loaded_at_import(child_env):
    import subprocess
    import sys

    code = ("import sys, semdef, semdef.cli; "
            "print(*(m in sys.modules for m in "
            "('semdef._kernel', 'semdef._orbits', 'ctypes', 'subprocess', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env, check=True).stdout
    assert out.split() == ["False"] * 5


def test_search_path_imports_no_ctypes(c_backend, child_env):
    # the kernel loads as an extension module: a search on it imports no
    # ctypes and enters no module of its own in sys.modules, and with the
    # build cached (c_backend made it) neither sysconfig nor subprocess,
    # which only a build needs; import semdef alone still loads no kernel
    # code
    import subprocess
    import sys

    code = ("import sys, semdef\n"
            "before = 'semdef._kernel' in sys.modules\n"
            "from semdef.graphs import path\n"
            "from semdef.solver import deficiency\n"
            "out = deficiency(path(3), 0)\n"
            "print(before, out.backend, out.deficiency, out.nodes,\n"
            "      *(m in sys.modules for m in\n"
            "        ('semdef._kernel', 'ctypes', 'semdef._dfs', 'sysconfig', 'subprocess')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env, check=True).stdout
    assert out.split() == ["False", "c", "0", "3", "True", "False", "False", "False", "False"]


# Malformed graphs for the kernel's plan and solve, on 3 vertices: (case,
# edges, the exception each must raise).
MALFORMED_EDGES = [
    ("list-of-edges", [(0, 1)], "TypeError"),
    ("list-edge", ((0, 1), [1, 2]), "TypeError"),
    ("3-tuple-edge", ((0, 1, 2),), "TypeError"),
    ("bool-endpoint", ((False, 1),), "TypeError"),
    ("float-endpoint", ((0, 1.0),), "TypeError"),
    ("endpoint-p", ((0, 3),), "ValueError"),
    ("negative-endpoint", ((-1, 1),), "ValueError"),
    ("huge-endpoint", ((0, 2**70),), "OverflowError"),
    ("loop", ((1, 1),), "ValueError"),
    ("edge-twice", ((0, 1), (0, 1)), "ValueError"),
    ("descending", ((1, 2), (0, 1)), "ValueError"),
]


def test_kernel_raises_on_malformed_edges(c_backend, child_env):
    # in a child, so a crash fails the test instead of ending the run: the
    # kernel's plan and solve raise for edges that are not Graph.edges of 3
    # vertices, and a well-formed call made after them still gives the
    # Python backend's results
    import json
    import subprocess
    import sys

    code = ("import ast, json, sys, types\n"
            "from semdef import _kernel, solver\n"
            "from semdef.graphs import path\n"
            "kernel = _kernel.load()\n"
            "out = []\n"
            "for edges in ast.literal_eval(sys.stdin.read()):\n"
            "    g = types.SimpleNamespace(vertex_count=3, edges=edges)\n"
            "    for call in (lambda: kernel.plan(g), lambda: kernel.solve(g, 0, 1, 2)):\n"
            "        try:\n"
            "            call()\n"
            "            out.append(None)\n"
            "        except Exception as exc:\n"
            "            out.append(type(exc).__name__)\n"
            "g = path(3)\n"
            "print(json.dumps([out, kernel.plan(g) == solver._plan(g),\n"
            "                  kernel.solve(g, 0, 1, 2) == solver._solve(g, 0, 1, 2)]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env, timeout=60,
                          input=repr([edges for _, edges, _ in MALFORMED_EDGES]))
    assert proc.returncode == 0, proc.stderr[-2000:]
    raised, plan_ok, solve_ok = json.loads(proc.stdout)
    assert dict(zip([name for name, *_ in MALFORMED_EDGES], zip(raised[::2], raised[1::2]))) == {
        name: (error, error) for name, _, error in MALFORMED_EDGES}
    assert plan_ok and solve_ok


def test_import_loads_no_code_generating_modules(child_env):
    # the records are named tuples, not dataclasses, whose import pulls in
    # inspect, ast, dis and tokenize; -S keeps site .pth files out of it
    import subprocess
    import sys

    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, semdef, semdef.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=child_env, check=True).stdout
    assert out == "[]\n"
