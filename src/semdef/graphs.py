"""Finite simple graphs and the families used throughout the package.

Conventions:
  * Vertices are 0-based indices 0..p-1; vertex labels (see labeling module)
    are 1-based, so formulas written for labels {1..p} apply unchanged.
  * Edges are stored as (u, v) with u < v, sorted lexicographically, so that
    equal graphs compare equal and certificates serialize reproducibly.
  * The wheel-minus-spoke family H_n is W_n = C_n + K_1 with one hub-to-rim
    edge removed: vertex 0 is the hub c, vertices 1..n are the rim x_1..x_n,
    and the missing spoke is c-x_1 by default.  The variant with the missing
    spoke at c-x_{n/2} (used by the n % 4 == 0 construction) is available via
    ``wheel_minus_spoke(n, missing_spoke=n // 2)``; the two are isomorphic.
  * Join products place the first factor at indices 0..p_g-1 and the second
    factor shifted up by p_g.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

SCHEMA = "semdef/1"


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: vertex count plus a canonical sorted edge list."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise ValueError(f"vertex_count must be >= 0, got {vertex_count}")
        canon = []
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < vertex_count):
                raise ValueError(f"edge {e!r} has an endpoint outside 0..{vertex_count - 1}")
            canon.append((u, v))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a!r}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def p(self) -> int:
        return self.vertex_count

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
        return {"schema": SCHEMA, "p": self.vertex_count, "edges": list(map(list, self.edges))}

    @classmethod
    def from_json_dict(cls, data) -> "Graph":
        """Read decoded graph JSON; any malformed input raises ValueError."""
        data = json_object(data, "graph")
        edges = data.get("edges")
        try:
            ok = type(edges) is list and _all_of_type(chain.from_iterable(edges), int)
        except TypeError:  # an edge that is not a list
            ok = False
        if not ok:
            raise ValueError("graph 'edges' must be a list of [u, v] integer pairs")
        # the constructor rejects an edge that is not a pair
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

# kind -> (least n, the ValueError text for a smaller n).  The builders
# below, make_family and family_size all check n against this one table.
_LEAST_N = {
    "empty": (0, "empty graph needs n >= 0, got {}"),
    "path": (1, "path needs n >= 1, got {}"),
    "cycle": (3, "cycle needs n >= 3, got {}"),
    "star": (1, "star needs n >= 1 leaves, got {}"),
    "wheel": (3, "wheel needs n >= 3, got {}"),
    "wheel-minus-spoke": (3, "wheel-minus-spoke needs n >= 3, got {}"),
}


def _check_n(kind: str, n: int) -> None:
    least, text = _LEAST_N[kind]
    if n < least:
        raise ValueError(text.format(n))


def empty_graph(n: int) -> Graph:
    """n isolated vertices (the empty graph on n vertices)."""
    _check_n("empty", n)
    return Graph(n)


def path(n: int) -> Graph:
    """Path P_n on n vertices (P_1 is a single vertex)."""
    _check_n("path", n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle C_n, n >= 3."""
    _check_n("cycle", n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star K_{1,n}: center 0 joined to leaves 1..n."""
    _check_n("star", n)
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def wheel(n: int) -> Graph:
    """Wheel W_n = C_n + K_1: hub 0, rim 1..n."""
    _check_n("wheel", n)
    spokes = [(0, i) for i in range(1, n + 1)]
    rim = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph(n + 1, spokes + rim)


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
    rim = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph(n + 1, spokes + rim)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------

def join(g: Graph, h: Graph) -> Graph:
    """Join product g + h: disjoint union plus all edges between the factors.

    Vertices of g keep their indices; vertices of h are shifted by g.p.
    """
    shift = g.vertex_count
    edges = list(g.edges)
    edges += [(u + shift, v + shift) for u, v in h.edges]
    edges += product(range(shift), range(shift, shift + h.vertex_count))
    return Graph(g.vertex_count + h.vertex_count, edges)


def add_isolated(g: Graph, t: int) -> Graph:
    """g with t extra isolated vertices appended."""
    if t < 0:
        raise ValueError(f"isolated vertex count must be >= 0, got {t}")
    return Graph(g.vertex_count + t, g.edges)


def degree_sequence(g: Graph) -> list[int]:
    """Degree of each vertex, indexed by vertex; sums to 2q."""
    return g.degrees()


# ---------------------------------------------------------------------------
# Family descriptors
# ---------------------------------------------------------------------------

# kind -> (needs_n, needs_m)
FAMILY_KINDS = {
    "path": (True, False),
    "cycle": (True, False),
    "star": (True, False),
    "empty": (True, False),
    "wheel": (True, False),
    "wheel-minus-spoke": (True, False),
    "path-join": (True, True),
    "star-join": (True, True),
    "cycle-join": (True, True),
    "generic-join": (False, True),
}


@dataclass(frozen=True)
class FamilyDescriptor:
    """A named graph family with its integer parameters."""

    kind: str
    n: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; known: {sorted(FAMILY_KINDS)}")
        needs_n, needs_m = FAMILY_KINDS[self.kind]
        if needs_n and self.n is None:
            raise ValueError(f"family {self.kind!r} requires parameter n")
        if needs_m and self.m is None:
            raise ValueError(f"family {self.kind!r} requires parameter m")


# Base kind -> (builder, closed-form (p, q) of the graph it builds from n).
_BASES = {
    "empty": (empty_graph, lambda n: (n, 0)),
    "path": (path, lambda n: (n, n - 1)),
    "cycle": (cycle, lambda n: (n, n)),
    "star": (star, lambda n: (n + 1, n)),
    "wheel": (wheel, lambda n: (n + 1, 2 * n)),
    "wheel-minus-spoke": (wheel_minus_spoke, lambda n: (n + 1, 2 * n - 1)),
}


def _base_kind(d: FamilyDescriptor) -> str:
    """The base family of d: d.kind itself, or the first factor of a join.

    Checks d's parameters first and raises make_family(d)'s ValueError.
    """
    kind, n, m = d.kind, d.n, d.m
    if kind in _BASES:
        _check_n(kind, n)
        return kind
    if m < 1:
        raise ValueError(f"join families need m >= 1, got {m}")
    if kind == "generic-join":
        raise ValueError(
            "generic-join has no canonical base; build it with join(base, empty_graph(m))"
        )
    if kind == "star-join" and n < 1:
        raise ValueError(f"star-join needs n >= 1, got {n}")
    base = kind.removesuffix("-join")
    _check_n(base, n)
    return base


def make_family(d: FamilyDescriptor) -> Graph:
    """Build the canonical graph for a family descriptor.

    Join families put the base family first (indices 0..n-1 resp. 0..n) and
    the m added independent vertices after it.
    """
    base = _base_kind(d)
    g = _BASES[base][0](d.n)
    return g if base == d.kind else join(g, empty_graph(d.m))


def family_size(d: FamilyDescriptor) -> tuple[int, int]:
    """(p, q) of make_family(d) from closed forms, without building the graph.

    A join with m added vertices has p = p_base + m and q = q_base + p_base*m.
    Raises the ValueError that make_family(d) raises.
    """
    base = _base_kind(d)
    p, q = _BASES[base][1](d.n)
    return (p, q) if base == d.kind else (p + d.m, q + p * d.m)
