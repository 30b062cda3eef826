"""The value records: constructor defaults, equality, hash, repr, immutability
and pickling, for every class built on `values.Record`."""

from __future__ import annotations

import copy
import pickle

import pytest

from gskit.construct import MappingTag
from gskit.core import Coloring, Kind, Record, Verdict, Violation, ViolationClass
from gskit.satgen import CnfDocument
from gskit.search import SearchConfig, SearchMode, SearchReport, SubtreeTask
from gskit.structure import Decomposition
from gskit.values import GsFunctionValue

_C = Coloring(n=4, r=2, colors=(1, 2, 2, 1))
_V = Violation(ViolationClass.RAINBOW_SUM, triple=(1, 2, 3))
_CFG = SearchConfig(kind=Kind.WEAK, r=3, n=17)

# Each record with the repr a frozen dataclass of the same fields prints.
_RECORDS = [
    (_C, "Coloring(n=4, r=2, colors=(1, 2, 2, 1))"),
    (_V, "Violation(category=<ViolationClass.RAINBOW_SUM: 'RainbowSum'>, "
         "triple=(1, 2, 3), color=None)"),
    (Violation(ViolationClass.EMPTY_COLOR, color=3),
     "Violation(category=<ViolationClass.EMPTY_COLOR: 'EmptyColor'>, "
     "triple=None, color=3)"),
    (Verdict(violations=(_V,)),
     "Verdict(violations=(Violation(category=<ViolationClass.RAINBOW_SUM: "
     "'RainbowSum'>, triple=(1, 2, 3), color=None),))"),
    (GsFunctionValue(r=2, kind=Kind.STRONG, value=5),
     "GsFunctionValue(r=2, kind=<Kind.STRONG: 'strong'>, value=5)"),
    (Decomposition(base=Coloring(n=1, r=1, colors=(1,)), tags=(MappingTag.FIVE_FOLD,)),
     "Decomposition(base=Coloring(n=1, r=1, colors=(1,)), "
     "tags=(<MappingTag.FIVE_FOLD: 'FiveFold'>,))"),
    (_CFG,
     "SearchConfig(kind=<Kind.WEAK: 'weak'>, r=3, n=17, mode=<SearchMode.FIRST_WITNESS: "
     "'first-witness'>, node_budget=None, wall_budget=None)"),
    (SearchConfig(Kind.STRONG, 2, 4, SearchMode.ENUMERATE_ALL, 10, 1.5),
     "SearchConfig(kind=<Kind.STRONG: 'strong'>, r=2, n=4, mode=<SearchMode.ENUMERATE_ALL: "
     "'enumerate-all'>, node_budget=10, wall_budget=1.5)"),
    (SearchReport(witnesses=(_C,), nodes_explored=7, exhausted=True),
     "SearchReport(witnesses=(Coloring(n=4, r=2, colors=(1, 2, 2, 1)),), "
     "nodes_explored=7, exhausted=True)"),
    (SubtreeTask(config=_CFG, prefix=(1, 2)),
     "SubtreeTask(config=SearchConfig(kind=<Kind.WEAK: 'weak'>, r=3, n=17, "
     "mode=<SearchMode.FIRST_WITNESS: 'first-witness'>, node_budget=None, "
     "wall_budget=None), prefix=(1, 2))"),
    (CnfDocument(n=1, r=1, kind=Kind.STRONG, symmetry=False, clauses=[[1]], labels=["a"]),
     "CnfDocument(n=1, r=1, kind=<Kind.STRONG: 'strong'>, symmetry=False, "
     "clauses=[[1]], labels=['a'])"),
]
_IDS = [type(rec).__name__ for rec, _ in _RECORDS]


def _fields(rec):
    return tuple(getattr(rec, f) for f in type(rec).__slots__)


def _rebuilt(rec):
    return type(rec)(*_fields(rec))


def test_every_value_class_is_a_record():
    assert len({type(rec) for rec, _ in _RECORDS}) == 9
    for rec, _ in _RECORDS:
        assert isinstance(rec, Record)
        assert not hasattr(rec, "__dict__")  # fields live in slots only


@pytest.mark.parametrize("rec, text", _RECORDS, ids=_IDS)
def test_repr_matches_dataclass_form(rec, text):
    assert repr(rec) == text


@pytest.mark.parametrize("rec, text", _RECORDS, ids=_IDS)
def test_equality_by_type_and_fields(rec, text):
    same = _rebuilt(rec)
    assert same is not rec
    assert same == rec and not same != rec
    assert rec != _fields(rec)  # a tuple of the same values is another type
    assert rec.__eq__(object()) is NotImplemented


def test_equality_sees_every_field():
    assert Coloring(n=4, r=3, colors=(1, 2, 2, 1)) != _C
    assert Violation(ViolationClass.RAINBOW_SUM, triple=(1, 2, 3), color=1) != _V
    assert SearchConfig(kind=Kind.WEAK, r=3, n=17, wall_budget=2.0) != _CFG


@pytest.mark.parametrize("rec, text", _RECORDS[:-1], ids=_IDS[:-1])
def test_hash_is_the_hash_of_the_field_tuple(rec, text):
    assert hash(rec) == hash(_fields(rec))
    assert hash(rec) == hash(_rebuilt(rec))
    assert len({rec, _rebuilt(rec)}) == 1


def test_cnf_document_stays_unhashable():
    doc = _RECORDS[-1][0]
    with pytest.raises(TypeError, match="unhashable type: 'CnfDocument'"):
        hash(doc)


@pytest.mark.parametrize("rec, text", _RECORDS, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(rec, text):
    name = type(rec).__slots__[0]
    before = getattr(rec, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(rec, name, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        rec.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(rec, name)
    assert getattr(rec, name) is before


@pytest.mark.parametrize("rec, text", _RECORDS, ids=_IDS)
def test_pickle_and_copy_round_trip(rec, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is type(rec)
        assert back == rec and repr(back) == text
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec


def test_constructor_defaults_and_keywords():
    v = Violation(ViolationClass.MONOCHROMATIC_SUM)
    assert (v.triple, v.color) == (None, None)
    cfg = SearchConfig(Kind.STRONG, 2, 4)
    assert cfg.mode is SearchMode.FIRST_WITNESS
    assert (cfg.node_budget, cfg.wall_budget) == (None, None)
    assert SearchConfig(kind=Kind.STRONG, n=4, r=2) == cfg
    with pytest.raises(TypeError):
        Coloring(4, 2)
    with pytest.raises(TypeError):
        SearchConfig(Kind.STRONG, 2, 4, streak=5)


def test_constructor_validation_is_kept():
    with pytest.raises(ValueError, match="order must be positive"):
        Coloring(n=0, r=1, colors=())
    with pytest.raises(ValueError, match="color count must be positive"):
        Coloring(n=1, r=0, colors=(1,))
    with pytest.raises(ValueError, match="expected 2 entries, got 1"):
        Coloring(n=2, r=1, colors=(1,))
    with pytest.raises(ValueError, match="color entries must be >= 1"):
        Coloring(n=3, r=2, colors=(1, 0, 2))
    with pytest.raises(ValueError, match="r and n must be positive"):
        SearchConfig(Kind.STRONG, 0, 4)
    with pytest.raises(ValueError, match="node budget must be positive"):
        SearchConfig(Kind.STRONG, 2, 4, node_budget=0)
    for wall in (0, float("nan")):
        with pytest.raises(ValueError, match="wall budget must be positive"):
            SearchConfig(Kind.STRONG, 2, 4, wall_budget=wall)


def test_derived_values_are_read_only_properties():
    # Each was a stored field holding exactly this value.
    verdict = Verdict(violations=(_V,))
    assert verdict.ok is False
    assert Verdict(violations=()).ok is True
    doc = CnfDocument(n=3, r=2, kind=Kind.WEAK, symmetry=False, clauses=[[6]], labels=["d"])
    assert doc.num_vars == 6
    dec = Decomposition(base=Coloring(n=1, r=1, colors=(1,)),
                        tags=(MappingTag.FIVE_FOLD, MappingTag.TWO_FOLD))
    assert dec.original_order == 19 == dec.replay().n
    for rec, name in ((verdict, "ok"), (doc, "num_vars"), (dec, "original_order")):
        assert name not in type(rec).__slots__
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 0)
