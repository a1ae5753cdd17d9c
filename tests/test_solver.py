import contextlib
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
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
from semdef.labeling import Labeling, SemCertificate, verify_sem
from semdef.manifest import CLAIMS
from semdef.solver import SearchLimitError, deficiency, find_sem


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


def test_search_limit():
    with pytest.raises(SearchLimitError):
        find_sem(path(10), 8)
    # the counting bound alone pushes this one past the label limit
    with pytest.raises(SearchLimitError):
        deficiency(join(cycle(5), empty_graph(8)), 12)
    # zero is a limit like any other, not a malformed one
    with pytest.raises(SearchLimitError):
        find_sem(path(2), 0, max_labels=0)
    # explicit override admits larger label counts
    res = find_sem(path(2), 15, max_labels=None)
    assert res.witness is not None


def test_deficiency_cap_validation():
    with pytest.raises(ValueError):
        deficiency(path(2), -1)
    with pytest.raises(ValueError):
        find_sem(path(2), -1)


@pytest.mark.parametrize("search", [
    lambda limit: find_sem(path(2), 0, max_labels=limit),
    lambda limit: deficiency(path(2), 2, max_labels=limit),
    # no filler count is searched: the counting bound exceeds the cap
    lambda limit: deficiency(join(cycle(5), empty_graph(8)), 0, max_labels=limit),
], ids=["find_sem", "deficiency", "deficiency-no-search"])
def test_negative_max_labels_is_a_value_error(search):
    with pytest.raises(ValueError, match="^max_labels must be >= 0, got -3$"):
        search(-3)


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
    plan = solver._plan(g)
    assert plan.orbit_prev == orbit_predecessors(g, plan.order), g


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
    # _find adds N and the pinned labels: label 1 for find_sem, labels 1 and
    # N for deficiency's
    k1 = Graph(1, [])
    calls = _backend_calls(monkeypatch, lambda: find_sem(g, 2), lambda: solver._find(g, 2, None, 2),
                           lambda: solver._find(k1, 1, None, 2), lambda: solver._find(k1, 0, None, 2))
    assert calls == [(plan, 8, 1), (plan, 8, 2),
                     # labels 1 and N are one label when N = 1
                     (solver._plan(k1), 2, 2), (solver._plan(k1), 1, 1)]


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
    (join(star(5), empty_graph(3)), 4, 1_826, 1_826),
    (join(path(5), empty_graph(3)), 5, 87_604, 60_504),
    (join(cycle(4), empty_graph(2)), 6, 2_461, 423),
    (join(cycle(3), empty_graph(4)), 3, 1_307, 844),
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


def _assert_same_search(g, t, pins=None):
    """The kernel's find_sem result, or with pins that of the search
    deficiency runs with those labels pinned, after checking that
    _run_search returns the same witness after the same number of nodes."""
    def search():
        if pins is None:
            return find_sem(g, t)
        return solver._find(g, t, None, pins)

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


def _manifest_searches(monkeypatch):
    """(graph, t, pins) of every search the manifest's solver claims make,
    through find_sem (pins 1) or deficiency (pins 2)."""
    calls = []
    find = solver._find

    def recording(g, t, max_labels, pins, *plan):
        calls.append((g, t, pins))
        return find(g, t, max_labels, pins, *plan)

    with monkeypatch.context() as m:
        m.setattr(solver, "_find", recording)
        report = reproduce.run(selection={c.id for c in CLAIMS if c.kind.startswith("solver")})
    assert not report.failed
    return calls


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
    # 17,081 nodes with neither label 1 nor N pinned
    out = _assert_same_deficiency(join(cycle(4), empty_graph(2)), 6)
    assert (out.deficiency, out.nodes, out.backend) == (None, 1_849, "c")


@pytest.mark.parametrize("search, ns", [
    (lambda g: deficiency(g, 6), [8, 9, 10, 11, 12]),
    (lambda g: find_sem(g, 6), [12]),
], ids=["deficiency", "find_sem"])
def test_each_call_builds_the_plan_once(monkeypatch, search, ns):
    # every search's plan is _plan's, from one orbit computation per call
    g = join(cycle(4), empty_graph(2))
    orbits, orbit_prev = [], _orbits.orbit_prev
    monkeypatch.setattr(_orbits, "orbit_prev", lambda adj: orbits.append(adj) or orbit_prev(adj))
    calls = _backend_calls(monkeypatch, lambda: search(g))
    assert len(orbits) == 1
    assert [n for _, n, _ in calls] == ns
    monkeypatch.undo()
    assert all(plan == solver._plan(g) for plan, *_ in calls)


def test_label_n_is_pinned_only_where_t_minus_1_fails():
    # D(H_5) = 1, so at t = 2 the least witness fits in 1..N-1 like the t = 1
    # one; pinning N there finds another labeling.  deficiency pins N only
    # where t - 1 has no witness.
    g, n_total = wheel_minus_spoke(5), 8
    assert deficiency(g, 2).deficiency == 1
    least = find_sem(g, 2).witness.labeling.labels
    assert least == least_sem_labeling(g, 2)
    assert least == (1, 7, 3, 6, 2, 4) and n_total not in least
    pinned = solver._find(g, 2, None, 2).witness.labeling.labels
    assert pinned == (1, 4, 6, 8, 5, 7)


@pytest.mark.parametrize("flags", [_kernel.CFLAGS, (*_kernel.CFLAGS, "-O0")],
                         ids=["CFLAGS", "O0"])
def test_kernel_compiles_without_warnings(tmp_path, flags):
    # the build load() makes, with the warnings that need the optimiser too;
    # at -O0 a helper marked always_inline that cannot be inlined is an error
    import shutil
    import subprocess

    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    proc = subprocess.run(["cc", *flags, "-std=c99", "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "_dfs.so"), str(_kernel.SOURCE)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_kernel_plan_struct_mirrors_the_plan():
    # semdef_dfs reads the plan as _dfs.c's Plan struct: p, then _Plan's
    # fields but order, named and ordered as there; a field added on one
    # side only fails here instead of handing the kernel a wrong array
    import ctypes
    import re

    fields = ["p", *(f for f in solver._Plan._fields if f != "order")]
    struct = _kernel.plan_type()
    assert [name for name, _ in struct._fields_] == fields
    assert [kind for _, kind in struct._fields_] == (
        [ctypes.c_int] + [ctypes.POINTER(ctypes.c_int)] * (len(fields) - 1))
    body = re.search(r"typedef struct \{(.*?)\} Plan;", _kernel.SOURCE.read_text(), re.S)[1]
    decls = re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]
    c_fields = [(decl.split()[0], name.strip(" *"))
                for decl in decls for name in re.sub(r"^\s*(const\s+)?int\s", "", decl).split(",")]
    assert c_fields == [("int", "p")] + [("const", f) for f in fields[1:]]
    # and the struct holds the plan's arrays
    plan = solver._plan(join(cycle(4), empty_graph(2)))
    converted = _kernel.plan_struct(plan)
    assert converted.p == len(plan.deg) == 6
    for name in fields[1:]:
        values = getattr(plan, name)
        assert getattr(converted, name)[:len(values)] == values, name


def test_deficiency_converts_its_plan_once(monkeypatch, c_backend):
    # the kernel keeps the struct of the last plan it saw, so the five
    # searches of deficiency (t = 2..6) share one conversion, and the next
    # call, with a plan of its own, converts again
    g = join(cycle(4), empty_graph(2))
    converted, searched = [], []
    dfs, plan_struct = _kernel.load(), _kernel.plan_struct
    monkeypatch.setattr(_kernel, "load", lambda: lambda plan, *args: (
        searched.append(plan) or dfs(plan, *args)))
    monkeypatch.setattr(_kernel, "plan_struct", lambda plan: (
        converted.append(plan) or plan_struct(plan)))
    out = deficiency(g, 6)
    assert (out.deficiency, out.nodes, out.backend) == (None, 1_849, "c")
    assert len(searched) == 5 and all(plan is searched[0] for plan in searched)
    assert converted == [searched[0]] and converted[0] is searched[0]
    assert deficiency(g, 6).nodes == 1_849
    assert len(converted) == 2 and converted[1] is not converted[0]


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
    # prune there: checking only the ends gives 10 nodes.
    g = join(empty_graph(2), empty_graph(2))
    # at position 2 both placed labels are open and no edge joins 2 and 3
    plan = solver._plan(g)
    assert (plan.open[plan.ostart[2]:plan.ostart[3]], plan.inner[2]) == ([0, 1], 0)
    res = _assert_same_search(g, 0)
    assert (res.witness, res.nodes) == (None, 8)


# Searches whose labels and edge sums 3..2N-1 spread over two or three of
# the kernel's 64-bit words: (graph, t, nodes of find_sem on both backends,
# whether a witness exists), with N = p + t of 36, 69, 68 and 68.
WORD_BOUNDARY = [
    (join(cycle(4), empty_graph(2)), 30, 37_398, False),
    (join(path(4), empty_graph(3)), 62, 54_565, True),
    (wheel_minus_spoke(5), 62, 2_379, True),
    (join(cycle(5), empty_graph(1)), 62, 7_018, True),
]


@pytest.mark.parametrize("g, t, nodes, found", WORD_BOUNDARY,
                         ids=["cycle-4-join-2-t30", "path-4-join-3-t62", "h5-t62",
                              "cycle-5-join-1-t62"])
def test_backends_agree_past_word_boundaries(c_backend, g, t, nodes, found):
    res = _assert_same_search(g, t, pins=1)
    assert (res.nodes, res.witness is not None) == (nodes, found)


# Run in a child interpreter: reads [[kind, graph JSON, t], ...] on stdin,
# runs find_sem(g, t) with no label limit (kind "find") or deficiency(g, t),
# and prints [backend, nodes, witness total labels, witness labels] per
# search as JSON, the last two null without a witness.  Given a path, it
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
    res = find_sem(g, t, max_labels=None) if kind == "find" else deficiency(g, t)
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


def _solve_instance(name):
    """(graph, cap) of the solve instance name in bench/inputs.py."""
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).parents[1] / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    [(_, family, n, m, cap)] = [i for i in inputs.SOLVE_INSTANCES if i[0] == name]
    return make_family(FamilyDescriptor(family, n=n, m=m)), cap


def _sanitized_kernel(tmp_path, sanitizer):
    """The kernel built with -fsanitize=sanitizer, aborting on the first
    error; the test is skipped when cc cannot build it."""
    import shutil
    import subprocess

    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    lib = tmp_path / f"_dfs_{sanitizer}.so"
    build = subprocess.run(["cc", f"-fsanitize={sanitizer}", "-fno-sanitize-recover=all",
                            "-shared", "-fPIC", "-o", str(lib), str(_kernel.SOURCE)],
                           capture_output=True, text=True)
    if build.returncode != 0:
        pytest.skip(f"cc cannot build with -fsanitize={sanitizer}: {build.stderr[-300:]}")
    return lib


def _assert_clean_child_searches(env, lib, searches, want):
    """Run searches in a child on the kernel build lib, and check that it
    exits cleanly with the backend, nodes and witnesses of want."""
    import json

    proc = _searches_in_child(env, searches, timeout=300, library=lib)
    if proc.returncode == 77:
        pytest.skip("the sanitized build does not load (no sanitizer runtime)")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert [(b, nodes, labels) for b, nodes, _, labels in json.loads(proc.stdout)] == [
        ("c", r.nodes, r.witness and list(r.witness.labeling.labels)) for r in want]


def test_kernel_runs_clean_under_ubsan(c_backend, child_env, tmp_path):
    # shifts by 64 or more and right shifts of negative ints are the slips
    # word bitsets invite; the sanitized build aborts on the first one
    lib = _sanitized_kernel(tmp_path, "undefined")
    g, cap = _solve_instance("C8+2K1")
    searches = [("find", h, t) for h, t, _, _ in WORD_BOUNDARY] + [("deficiency", g, cap)]
    want = [find_sem(h, t, max_labels=None) for h, t, _, _ in WORD_BOUNDARY] + [deficiency(g, cap)]
    _assert_clean_child_searches(child_env, lib, searches, want)


def test_kernel_runs_clean_under_asan(c_backend, child_env, tmp_path):
    # a read or write past a bitset, a completion row or the Search struct,
    # as a slip in the downward walk of the free labels or in the struct
    # layout would make, aborts the sanitized build; the interpreter is not
    # built with ASan, so its runtime is preloaded
    import subprocess
    from pathlib import Path

    lib = _sanitized_kernel(tmp_path, "address")
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not Path(runtime).is_file():
        pytest.skip("no ASan runtime (libasan.so) beside cc")
    env = {**child_env, "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
    searches = [("find", h, t) for h, t, _, _ in WORD_BOUNDARY]
    want = [find_sem(h, t, max_labels=None) for h, t, _, _ in WORD_BOUNDARY]
    _assert_clean_child_searches(env, lib, searches, want)


def test_kernel_out_of_memory_is_a_limit(c_backend, child_env, tmp_path):
    # K_{1,6000} needs 6001 * 6002 completion sums, 288 MB, which a 300 MB
    # address space cannot hold: solve reports a limit and exits 4, where a
    # traceback would exit 1, the code of a rejected certificate
    import json
    import subprocess
    import sys

    graph_path = tmp_path / "star.json"
    graph_path.write_text(json.dumps(star(6000).to_json_dict()))
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
             "from semdef.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", child, "solve", "--graph", str(graph_path),
                           "--cap", "0", "--max-labels", "7000"],
                          capture_output=True, text=True, env=child_env, timeout=120)
    assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr[-2000:]
    assert proc.stderr == ("limit: the search kernel could not allocate its completion "
                           "tables for 6001 vertices\n")


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


def _unwritable_cache(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_kernel, "CACHE_DIR", blocker / "cache")


def _corrupt_library(monkeypatch, tmp_path):
    _kernel.library_path().write_bytes(b"not a shared library")


@pytest.mark.parametrize(
    "breakage", [_break_source, _no_compiler, _unwritable_cache, _corrupt_library]
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
def test_too_deep_for_the_python_search_is_a_limit(monkeypatch, tmp_path, fresh_kernel, breakage):
    # _run_search recurses once per position, and the 1,101 of K_{1,1100} go
    # past the recursion limit: a SearchLimitError, not a RecursionError
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    with _python_only() if breakage is None else contextlib.nullcontext():
        if breakage is not None:
            breakage(monkeypatch, tmp_path)
        for search in (find_sem, deficiency):
            with pytest.raises(SearchLimitError, match="recursion limit"):
                search(star(1100), 0, max_labels=None)


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


def test_kernel_is_not_loaded_at_import(child_env):
    import subprocess
    import sys

    code = ("import sys, semdef, semdef.cli; "
            "print(*(m in sys.modules for m in "
            "('semdef._kernel', 'semdef._orbits', 'ctypes', 'subprocess', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env, check=True).stdout
    assert out.split() == ["False"] * 5


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
