"""Vertex labelings and the super edge-magic (SEM) verifier.

A graph G with p vertices and q edges is super edge-magic exactly when some
bijection f : V -> {1..p} makes the edge-sum set S = {f(x)+f(y) : xy in E}
consist of q consecutive integers; f then extends to a total labeling with
magic constant k = p + q + min(S).  We work with G U tK_1 implicitly: the
labeling of the p real vertices is injective into {1..N} with N = p + t, and
the t isolated fillers take exactly the unused labels.  Fillers are never
materialized as graph vertices; t is pure label-space slack.

Consecutiveness is tested as (q distinct sums) and (max - min == q - 1),
which is equivalent to "q consecutive integers" without sorting.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .graphs import Graph, SCHEMA, _Checked, _all_of_type, json_int, json_int_list, json_object

# Rejection reasons, ordered by when the verifier can detect them.
REASON_OUT_OF_RANGE = "label-out-of-range"
REASON_DUPLICATE_LABEL = "duplicate-label"
REASON_DUPLICATE_SUM = "duplicate-sum"
REASON_SUM_GAP = "sum-gap"


class _LabelingFields(NamedTuple):
    labels: tuple[int, ...]
    total_labels: int


class Labeling(_Checked, _LabelingFields):
    """Labels of the p real vertices, drawn from {1..total_labels}.

    total_labels = p + t where t is the isolated filler count, p when not
    given.  A label or a total_labels that is not an int (a float, a string,
    True) raises ValueError, as does a total_labels below p; any other bad
    label, out of range or repeated, is left for verify_sem to report as a
    rejection, so that tests and the CLI can observe the failure mode.
    """

    __slots__ = ()

    def __new__(cls, labels, total_labels: int | None = None):
        labels = tuple(labels)
        if not _all_of_type(labels, int):
            for label in labels:  # name the first label that is not an int
                json_int(label, "label")
        if total_labels is None:
            total_labels = len(labels)
        elif json_int(total_labels, "total_labels") < len(labels):
            raise ValueError(
                f"total_labels={total_labels} is less than the vertex count {len(labels)}"
            )
        return tuple.__new__(cls, (labels, total_labels))

    @property
    def isolated(self) -> int:
        return self.total_labels - len(self.labels)


class Rejection(NamedTuple):
    """Why a labeling is not super edge-magic."""

    reason: str
    detail: str

    def __bool__(self) -> bool:  # rejections are falsy; certificates truthy
        return False


class SemCertificate(NamedTuple):
    """A verified SEM labeling of graph U (isolated)K_1.

    min_edge_sum is min(S); magic_constant is (p + isolated) + q + min(S).
    Only the verifier, the constructions, and the solver produce these.
    """

    graph: Graph
    labeling: Labeling
    isolated: int
    min_edge_sum: int
    magic_constant: int

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "graph": self.graph.to_json_dict(),
            "labels": list(self.labeling.labels),
            "isolated": self.isolated,
            "s": self.min_edge_sum,
            "k": self.magic_constant,
        }


def certificate_from_json_dict(data) -> tuple[Graph, Labeling, dict]:
    """Unpack a certificate JSON dict into (graph, labeling, claimed fields).

    The claimed fields ({"isolated", "s", "k"}, s and k None if absent) are
    not verified; callers cross-check them (see cli.verify).  Malformed
    input, a label count other than p or a non-integer s or k, raises ValueError.
    """
    data = json_object(data, "certificate")
    if "graph" not in data:
        raise ValueError("certificate JSON has no 'graph' key")
    graph = Graph.from_json_dict(data["graph"])
    isolated = json_int(data.get("isolated"), "certificate 'isolated'")
    if isolated < 0:
        raise ValueError(f"isolated count must be >= 0, got {isolated}")
    labels = json_int_list(data.get("labels"), "certificate 'labels'")
    if len(labels) != graph.vertex_count:
        raise ValueError(f"certificate has {len(labels)} labels for {graph.vertex_count} vertices")
    labeling = Labeling(labels, graph.vertex_count + isolated)
    claimed = {"isolated": isolated, "s": data.get("s"), "k": data.get("k")}
    for key in ("s", "k"):
        if claimed[key] is not None:
            json_int(claimed[key], f"certificate {key!r}")
    return graph, labeling, claimed


def edge_sums(g: Graph, f: Labeling) -> list[int]:
    """f(u)+f(v) for every edge, in canonical edge order (one entry per edge)."""
    if len(f.labels) != g.vertex_count:
        raise ValueError(
            f"labeling has {len(f.labels)} labels but the graph has {g.vertex_count} vertices"
        )
    lab = f.labels
    return [lab[u] + lab[v] for u, v in g.edges]


def verify_sem(g: Graph, f: Labeling) -> SemCertificate | Rejection:
    """Check the consecutive-edge-sums characterization of SEM labelings.

    Accepts iff the labels are injective into {1..N} (N = p + t) and the q
    edge sums are pairwise distinct consecutive integers.  Returns a
    certificate on acceptance and a Rejection naming the failure otherwise.
    For q == 0 the sum condition is vacuous; min_edge_sum is 0 by convention.
    A label count other than p raises ValueError before any label is checked.
    """
    sums = edge_sums(g, f)  # checks the label count first
    n_total = f.total_labels
    if f.labels and not (1 <= min(f.labels) and max(f.labels) <= n_total):
        for v, lab in enumerate(f.labels):
            if not (1 <= lab <= n_total):
                return Rejection(
                    REASON_OUT_OF_RANGE,
                    f"vertex {v} has label {lab}, outside 1..{n_total}",
                )
    if len(set(f.labels)) != len(f.labels):
        seen: dict[int, int] = {}
        for v, lab in enumerate(f.labels):
            if lab in seen:
                return Rejection(
                    REASON_DUPLICATE_LABEL,
                    f"vertices {seen[lab]} and {v} both have label {lab}",
                )
            seen[lab] = v

    q = len(sums)
    if q == 0:
        s = 0
    else:
        distinct = set(sums)
        if len(distinct) != q:
            counts = Counter(sums)
            dup = next(x for x in sums if counts[x] > 1)
            return Rejection(REASON_DUPLICATE_SUM, f"edge sum {dup} occurs more than once")
        s, top = min(distinct), max(distinct)
        if top - s != q - 1:
            return Rejection(
                REASON_SUM_GAP,
                f"{q} distinct sums span {s}..{top}, not {q} consecutive integers",
            )
    k = n_total + q + s
    return SemCertificate(g, f, f.isolated, s, k)


def total_edge_labels(cert: SemCertificate) -> list[int]:
    """Edge labels of the extended magic total labeling, in canonical edge order.

    The edge with sum s+j gets label N+q-j (N = p+t), so every edge satisfies
    f(x) + f(xy) + f(y) = magic_constant and the edge labels are exactly
    {N+1 .. N+q}.
    """
    n_total = cert.labeling.total_labels
    q = cert.graph.q
    sums = edge_sums(cert.graph, cert.labeling)
    return [n_total + q - (sm - cert.min_edge_sum) for sm in sums]


def weighted_sum_required(q: int, s: int) -> int:
    """Sum of q consecutive integers starting at s: q*s + q(q-1)/2.

    Equals sum(S) for any accepting labeling, and also equals the
    degree-weighted label sum, since each vertex label is counted once per
    incident edge.
    """
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    return q * s + q * (q - 1) // 2

