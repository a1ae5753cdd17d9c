"""The record contract: every record is an immutable named tuple, and the
three that check their fields (Graph, Labeling, FamilyDescriptor) check
them however an instance is built, except through Graph._canonical."""

import copy
import pickle

import pytest

from semdef.bounds import family_bounds
from semdef.constructions import construct_star_join, erratum_demos
from semdef.graphs import FamilyDescriptor, Graph, cycle, path
from semdef.labeling import Labeling, Rejection, verify_sem
from semdef.manifest import CLAIMS
from semdef.reproduce import ClaimOutcome, ReproductionReport
from semdef.solver import deficiency, find_sem


def _records():
    g = path(3)
    outcome = ClaimOutcome(CLAIMS[0], "pass", "ok")
    return [
        g,
        FamilyDescriptor("path-join", n=2, m=3),
        Labeling((1, 3, 2)),
        verify_sem(g, Labeling((1, 2, 3))),
        verify_sem(g, Labeling((1, 3, 2))),
        construct_star_join(3, 1),
        erratum_demos()[0],
        family_bounds(FamilyDescriptor("path-join", n=4, m=5)),
        find_sem(g, 0),
        deficiency(cycle(4), 2),
        CLAIMS[0],
        outcome,
        ReproductionReport((outcome,)),
    ]


def test_every_record_is_a_named_tuple():
    records = _records()
    assert len({type(r) for r in records}) == 13
    assert all(isinstance(r, tuple) and r._fields for r in records)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either


def test_search_result_is_truthy_exactly_with_a_witness():
    # Rejection and SemCertificate: test_labeling.py
    found, exhausted = find_sem(path(3), 0), find_sem(cycle(4), 0)
    assert found and found.witness is not None
    assert not exhausted and exhausted.witness is None


def test_record_repr_names_the_fields():
    assert repr(Graph(2, [(1, 0)])) == "Graph(vertex_count=2, edges=((0, 1),))"
    assert repr(Labeling([1, 2], 3)) == "Labeling(labels=(1, 2), total_labels=3)"
    assert repr(FamilyDescriptor("path", n=3)) == "FamilyDescriptor(kind='path', n=3, m=None)"
    assert repr(Rejection("sum-gap", "x")) == "Rejection(reason='sum-gap', detail='x')"


def test_records_equal_plain_tuples_of_their_fields():
    assert Graph(2, [(1, 0)]) == (2, ((0, 1),))
    assert FamilyDescriptor("path", n=3) == ("path", 3, None)


# Each checked record, a valid instance, a field value __new__ rejects, and
# an invalid instance built around __new__.
CHECKED = [
    (Graph(3, [(0, 1), (1, 2)]), {"vertex_count": -1}, (-1, ())),
    (Graph(3, [(0, 1), (1, 2)]), {"edges": ((0, 0),)}, (2, ((1, 1),))),
    (Labeling((1, 2), 3), {"total_labels": 1}, ((1, 2), 1)),
    (Labeling((1, 2), 3), {"labels": (1.5, 2)}, ((True,), 1)),
    (FamilyDescriptor("path-join", n=2, m=3), {"m": None}, ("path-join", 2, None)),
    (FamilyDescriptor("path-join", n=2, m=3), {"kind": "nope"}, ("nope", 2, 3)),
]
CHECKED_IDS = [f"{type(r).__name__}-{next(iter(bad))}" for r, bad, _ in CHECKED]


@pytest.mark.parametrize("record, bad, _", CHECKED, ids=CHECKED_IDS)
def test_replace_and_make_validate(record, bad, _):
    with pytest.raises(ValueError):
        record._replace(**bad)
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), **bad}.values())
    assert record._replace() == record
    assert type(record._make(record)) is type(record)


@pytest.mark.parametrize("record, _, fields", CHECKED, ids=CHECKED_IDS)
def test_pickle_and_copy_validate(record, _, fields):
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, proto))
        assert back == record and type(back) is type(record)
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    bad = tuple.__new__(type(record), fields)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(bad, proto))
    for clone in (copy.copy, copy.deepcopy):
        with pytest.raises(ValueError):
            clone(bad)


def test_replace_recanonicalizes_graph_edges():
    g = Graph(3, [(0, 1)])._replace(edges=[(2, 1), (1, 0)])
    assert g.edges == ((0, 1), (1, 2))


def test_canonical_is_the_only_unchecked_constructor():
    g = Graph._canonical(-1, [])
    assert g == (-1, ()) and type(g) is Graph
