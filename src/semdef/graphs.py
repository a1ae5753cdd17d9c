"""Finite simple graphs and the families used throughout the package.

Conventions:
  * Vertices are 0-based indices 0..p-1; vertex labels (see labeling module)
    are 1-based, so formulas written for labels {1..p} apply unchanged.
  * Edges are stored as (u, v) with u < v, sorted lexicographically, so that
    equal graphs compare equal and certificates serialize reproducibly.
  * Graph and FamilyDescriptor are immutable named tuples whose __new__
    validates; _replace, _make, pickle and copy all build through it.  The
    builders in this module (the families and join) emit canonical edges by
    construction and hand them to the unchecked Graph._canonical, which
    nothing outside this module may call; tests compare every builder with
    Graph(p, edges).
  * The wheel-minus-spoke family H_n is W_n = C_n + K_1 with one hub-to-rim
    edge removed: vertex 0 is the hub c, vertices 1..n are the rim x_1..x_n,
    and the missing spoke is c-x_1 by default.  The variant with the missing
    spoke at c-x_{n/2} (used by the n % 4 == 0 construction) is available via
    ``wheel_minus_spoke(n, missing_spoke=n // 2)``; the two are isomorphic.
  * Join products place the first factor at indices 0..p_g-1 and the second
    factor shifted up by p_g.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice, product
from operator import lt
from typing import NamedTuple

SCHEMA = "semdef/1"


class _Checked:
    """Mixin for a named-tuple record whose __new__ checks its fields: _make,
    and so _replace, and pickle and copy build through __new__ as well."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class _GraphFields(NamedTuple):
    vertex_count: int
    edges: tuple[tuple[int, int], ...]


class Graph(_Checked, _GraphFields):
    """A finite simple graph: vertex count plus a canonical sorted edge list."""

    __slots__ = ()

    def __new__(cls, vertex_count: int, edges=()):
        json_int(vertex_count, "vertex_count")
        if vertex_count < 0:
            raise ValueError(f"vertex_count must be >= 0, got {vertex_count}")
        canon = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair") from None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {e!r} is not a pair of integers")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < vertex_count):
                raise ValueError(f"edge {e!r} has an endpoint outside 0..{vertex_count - 1}")
            canon.append((u, v))
        if not all(map(lt, canon, islice(canon, 1, None))):  # not already sorted and distinct
            canon.sort()
            for a, b in zip(canon, canon[1:]):
                if a == b:
                    raise ValueError(f"duplicate edge {a!r}")
        return tuple.__new__(cls, (vertex_count, tuple(canon)))

    @classmethod
    def _canonical(cls, vertex_count: int, edges) -> "Graph":
        """A Graph from edges that are already canonical: distinct (u, v)
        with 0 <= u < v < vertex_count, in sorted order.  Checks nothing, so
        only this module's builders may call it."""
        return tuple.__new__(cls, (vertex_count, tuple(edges)))

    @property
    def q(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def to_json_dict(self) -> dict:
        """The graph as a JSON-ready dict.  Its edges are (u, v) tuples:
        json.dumps writes them as the same bytes as lists, and from_json_dict
        reads either."""
        return {"schema": SCHEMA, "p": self.vertex_count, "edges": list(self.edges)}

    @classmethod
    def from_json_dict(cls, data) -> "Graph":
        """Read decoded graph JSON; any malformed input raises ValueError."""
        data = json_object(data, "graph")
        edges = data.get("edges")
        if type(edges) is not list:
            raise ValueError("graph 'edges' must be a list of [u, v] integer pairs")
        # the constructor rejects an edge that is not a pair of integers
        return cls(json_int(data.get("p"), "graph 'p'"), edges)


# ---------------------------------------------------------------------------
# Checks on decoded JSON from outside the program: a malformed shape raises
# ValueError, never a TypeError or AttributeError from deeper down.  Types
# are compared exactly, so a JSON true is not taken for the integer 1.
# ---------------------------------------------------------------------------

def _all_of_type(values, kind: type) -> bool:
    return set(map(type, values)) <= {kind}


def json_object(data, what: str) -> dict:
    """data if it is a JSON object of this package's schema."""
    if type(data) is not dict:
        raise ValueError(f"{what} JSON must be an object, got {type(data).__name__}")
    schema = data.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ValueError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")
    return data


def json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_int_list(value, what: str) -> list[int]:
    if not (type(value) is list and _all_of_type(value, int)):
        raise ValueError(f"{what} must be a list of integers")
    return value


# ---------------------------------------------------------------------------
# Elementary families
# ---------------------------------------------------------------------------

def _check_n(kind: str, n: int) -> None:
    least, text = FAMILY_KINDS[kind][1:3]
    if n < least:
        raise ValueError(text.format(n))


def empty_graph(n: int) -> Graph:
    """n isolated vertices (the empty graph on n vertices)."""
    _check_n("empty", n)
    return Graph._canonical(n, ())


def path(n: int) -> Graph:
    """Path P_n on n vertices (P_1 is a single vertex)."""
    _check_n("path", n)
    return Graph._canonical(n, [(i, i + 1) for i in range(n - 1)])


def _ring(first: int, last: int) -> list[tuple[int, int]]:
    """The cycle on first..last, first + 2 <= last, in canonical order."""
    return [(first, first + 1), (first, last)] + [(i, i + 1) for i in range(first + 1, last)]


def cycle(n: int) -> Graph:
    """Cycle C_n, n >= 3."""
    _check_n("cycle", n)
    return Graph._canonical(n, _ring(0, n - 1))


def star(n: int) -> Graph:
    """Star K_{1,n}: center 0 joined to leaves 1..n."""
    _check_n("star", n)
    return Graph._canonical(n + 1, [(0, i) for i in range(1, n + 1)])


def wheel(n: int) -> Graph:
    """Wheel W_n = C_n + K_1: hub 0, rim 1..n."""
    _check_n("wheel", n)
    return Graph._canonical(n + 1, [(0, i) for i in range(1, n + 1)] + _ring(1, n))


def wheel_minus_spoke(n: int, missing_spoke: int = 1) -> Graph:
    """Wheel W_n with the hub-to-x_{missing_spoke} edge removed.

    Hub is vertex 0, rim vertices x_1..x_n are 1..n.  All choices of
    missing_spoke give isomorphic graphs; the parameter only fixes which
    printed labeling formulas apply verbatim.
    """
    _check_n("wheel-minus-spoke", n)
    if not (1 <= missing_spoke <= n):
        raise ValueError(f"missing_spoke must be in 1..{n}, got {missing_spoke}")
    spokes = [(0, i) for i in range(1, n + 1) if i != missing_spoke]
    return Graph._canonical(n + 1, spokes + _ring(1, n))


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------

def join(g: Graph, h: Graph) -> Graph:
    """Join product g + h: disjoint union plus all edges between the factors.

    Vertices of g keep their indices; vertices of h are shifted by
    g.vertex_count.
    """
    shift = g.vertex_count
    # one tuple, so every cross edge shares its int objects
    right = tuple(range(shift, shift + h.vertex_count))
    # canonical order: per vertex u of g, g's edges (u, v) and then the cross
    # edges (u, shift..), since v < shift; h's shifted edges come last
    edges = []
    start = 0
    for u in range(shift):
        stop = bisect_left(g.edges, (u + 1,), start)
        edges += g.edges[start:stop]
        edges += product((u,), right)
        start = stop
    edges += [(u + shift, v + shift) for u, v in h.edges]
    return Graph._canonical(shift + h.vertex_count, edges)


# ---------------------------------------------------------------------------
# Family descriptors
# ---------------------------------------------------------------------------

# kind -> (needs m, least n, the ValueError text for a smaller n, builder,
# closed-form (p, q) of the graph it builds).  A kind that needs m is a join:
# its builder and sizes take (n, m), the others take n.  A join of a graph
# with p_g vertices and q_g edges with m independent vertices has
# p = p_g + m and q = q_g + p_g*m.  generic-join has no canonical base, so no
# n and no builder.  The builders above, make_family, family_size and
# FamilyDescriptor all read this one table.
FAMILY_KINDS = {
    "path": (False, 1, "path needs n >= 1, got {}", path, lambda n: (n, n - 1)),
    "cycle": (False, 3, "cycle needs n >= 3, got {}", cycle, lambda n: (n, n)),
    "star": (False, 1, "star needs n >= 1 leaves, got {}", star, lambda n: (n + 1, n)),
    "empty": (False, 0, "empty graph needs n >= 0, got {}", empty_graph, lambda n: (n, 0)),
    "wheel": (False, 3, "wheel needs n >= 3, got {}", wheel, lambda n: (n + 1, 2 * n)),
    "wheel-minus-spoke": (
        False, 3, "wheel-minus-spoke needs n >= 3, got {}",
        wheel_minus_spoke, lambda n: (n + 1, 2 * n - 1),
    ),
    "path-join": (
        True, 1, "path needs n >= 1, got {}",
        lambda n, m: join(path(n), empty_graph(m)),
        lambda n, m: (n + m, n * (m + 1) - 1),
    ),
    "star-join": (
        True, 1, "star-join needs n >= 1, got {}",
        lambda n, m: join(star(n), empty_graph(m)),
        lambda n, m: (n + m + 1, (n + 1) * (m + 1) - 1),
    ),
    "cycle-join": (
        True, 3, "cycle needs n >= 3, got {}",
        lambda n, m: join(cycle(n), empty_graph(m)),
        lambda n, m: (n + m, n * (m + 1)),
    ),
    "generic-join": (
        True, None,
        "generic-join has no canonical base; build it with join(base, empty_graph(m))",
        None, None,
    ),
}


class _FamilyFields(NamedTuple):
    kind: str
    n: int | None
    m: int | None


class FamilyDescriptor(_Checked, _FamilyFields):
    """A named graph family with exactly the integer parameters it takes:
    n for every kind but generic-join, m for the joins."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int | None = None, m: int | None = None):
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}; known: {sorted(FAMILY_KINDS)}")
        needs_m, least_n = FAMILY_KINDS[kind][:2]
        for name, value, takes in (("n", n, least_n is not None), ("m", m, needs_m)):
            if takes and value is None:
                raise ValueError(f"family {kind!r} requires parameter {name}")
            if not takes and value is not None:
                raise ValueError(f"family {kind!r} takes no parameter {name}")
        return tuple.__new__(cls, (kind, n, m))


def _family_row(d: FamilyDescriptor):
    """d's (builder, closed-form sizes, their arguments).

    Checks d's parameters first and raises make_family(d)'s ValueError.
    """
    needs_m, least_n, text, build, size = FAMILY_KINDS[d.kind]
    if needs_m and d.m < 1:
        raise ValueError(f"join families need m >= 1, got {d.m}")
    if least_n is None:
        raise ValueError(text)
    if d.n < least_n:
        raise ValueError(text.format(d.n))
    return build, size, (d.n, d.m) if needs_m else (d.n,)


def make_family(d: FamilyDescriptor) -> Graph:
    """Build the canonical graph for a family descriptor.

    Join families put the base family first (indices 0..n-1 resp. 0..n) and
    the m added independent vertices after it.
    """
    build, _, args = _family_row(d)
    return build(*args)


def family_size(d: FamilyDescriptor) -> tuple[int, int]:
    """(p, q) of make_family(d) from closed forms, without building the graph.

    Raises the ValueError that make_family(d) raises.
    """
    _, size, args = _family_row(d)
    return size(*args)
