"""CNF encoding: clause shapes, clause counts, decoding, solver cross-checks."""

from __future__ import annotations

import itertools
import time

import pytest

from gskit.core import Coloring, Kind, canonicalize, check_partition
from gskit.satgen import (
    CnfDocument,
    clause_count,
    decode,
    encode,
    parse_model,
    satisfies,
    to_dimacs,
    var_index,
)

from oracle import dpll, naive_ok


def test_variable_indexing():
    doc = encode(4, 2, Kind.STRONG)
    assert doc.num_vars == 8
    assert var_index(1, 1, 2) == 1
    assert var_index(4, 2, 2) == 8
    assert var_index(3, 1, 2) == 5


def test_single_cell_document():
    doc = encode(1, 1, Kind.STRONG)
    assert doc.num_vars == 1
    assert satisfies(doc, Coloring(r=1, colors=(1,)))


def test_document_invariants_enforced():
    with pytest.raises(ValueError, match="empty clause"):
        CnfDocument(n=2, r=2, kind=Kind.STRONG, symmetry=False, clauses=[[]])
    with pytest.raises(ValueError, match="literal out of range"):
        CnfDocument(n=2, r=2, kind=Kind.STRONG, symmetry=False, clauses=[[5]])


@pytest.mark.parametrize("n, r", [(0, 3), (3, 0)])
def test_encode_refuses_an_empty_order_or_palette(n, r):
    with pytest.raises(ValueError, match="^n and r must be positive$"):
        encode(n, r, Kind.STRONG)


def test_satisfies_refuses_a_coloring_of_another_shape():
    doc = encode(4, 2, Kind.STRONG)
    for other in (Coloring(r=2, colors=(1, 2, 2)), Coloring(r=3, colors=(1, 2, 2, 1))):
        with pytest.raises(ValueError, match="^coloring shape does not match the document$"):
            satisfies(doc, other)


def test_decode_examples():
    c = decode([1, -2, -3, 4, -5, 6, 7, -8], 4, 2)
    assert str(c) == "1221"
    with pytest.raises(ValueError):
        decode([-v for v in range(1, 9)], 4, 2)  # nothing positive
    with pytest.raises(ValueError):
        decode([1, 2, -3, 4, -5, 6, 7, -8], 4, 2)  # two colors for 1
    with pytest.raises(ValueError):
        decode([9], 4, 2)  # out of range


def test_decode_cost_follows_the_model_not_n_times_r():
    # One positive literal per position: each is looked up by position
    # instead of trying all r colors of every position, which at
    # n = r = 20,000 would be 4 * 10^8 lookups.
    n = r = 20_000
    model = [var_index(v, (v - 1) % r + 1, r) for v in range(1, n + 1)]
    start = time.process_time()
    c = decode(model, n, r)
    assert time.process_time() - start < 1.0
    assert c.colors == tuple(range(1, n + 1))
    # Nothing of size n is built up front: the scan stops at position 2.
    with pytest.raises(ValueError, match="^model assigns 0 colors to 2; exactly one required$"):
        decode([1], 10**9, 1)


def test_encoding_equivalent_to_verifier_plus_nonempty():
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in (1, 2, 3):
            for n in range(1, 7):
                doc = encode(n, r, kind)
                for colors in itertools.product(range(1, r + 1), repeat=n):
                    c = Coloring(r=r, colors=colors)
                    want = naive_ok(colors, kind.value) and set(colors) == set(
                        range(1, r + 1)
                    )
                    assert satisfies(doc, c) == want, (kind, r, colors)


def test_symmetry_restricts_to_canonical_models():
    doc = encode(4, 2, Kind.STRONG, symmetry=True)
    assert satisfies(doc, Coloring(r=2, colors=(1, 2, 2, 1)))
    assert not satisfies(doc, Coloring(r=2, colors=(2, 1, 1, 2)))


def test_unsat_instances_via_solver():
    # Three colors on [1, 3] force the rainbow 1 + 2 = 3.
    doc = encode(3, 3, Kind.STRONG)
    assert dpll(doc.num_vars, doc.clauses) is None
    # One above the two-color maximum order.
    doc = encode(5, 2, Kind.STRONG)
    assert dpll(doc.num_vars, doc.clauses) is None
    doc = encode(9, 2, Kind.WEAK)
    assert dpll(doc.num_vars, doc.clauses) is None


def test_sat_instances_decode_to_valid_partitions():
    doc = encode(4, 2, Kind.STRONG)
    model = dpll(doc.num_vars, doc.clauses)
    assert model is not None
    c = decode(model, 4, 2)
    assert check_partition(c, Kind.STRONG).ok
    assert str(canonicalize(c)) == "1221"

    doc = encode(9, 3, Kind.STRONG, symmetry=True)
    model = dpll(doc.num_vars, doc.clauses)
    assert model is not None
    c = decode(model, 9, 3)
    assert check_partition(c, Kind.STRONG).ok
    assert canonicalize(c) == c  # symmetry clauses force canonical form


def test_symmetry_never_changes_satisfiability():
    from gskit.search import SearchConfig, SearchMode, exists_partition

    grid = [(2, n) for n in (1, 3, 4, 5, 6, 10)] + [(3, n) for n in (3, 8, 9, 10)]
    for kind in (Kind.STRONG, Kind.WEAK):
        for r, n in grid:
            plain = dpll(n * r, encode(n, r, kind).clauses) is not None
            sym = dpll(n * r, encode(n, r, kind, symmetry=True).clauses) is not None
            search = exists_partition(
                SearchConfig(kind=kind, r=r, n=n, mode=SearchMode.FIRST_WITNESS)
            )
            assert plain == sym == bool(search.witnesses), (kind, r, n)


def test_dimacs_output_shape():
    doc = encode(4, 2, Kind.STRONG, symmetry=True)
    text = to_dimacs(doc)
    lines = text.splitlines()
    assert lines[1] == "c n=4 r=2 kind=strong symmetry=on"
    header = [ln for ln in lines if ln.startswith("p ")]
    assert header == [f"p cnf 8 {len(doc.clauses)}"]
    body = [ln for ln in lines if not ln.startswith(("c", "p"))]
    assert len(body) == len(doc.clauses)
    assert all(ln.endswith(" 0") for ln in body)
    assert text.endswith("\n")


def test_parse_model_formats():
    assert parse_model("v 1 -2 3 0\n") == [1, -2, 3]
    assert parse_model("s SATISFIABLE\nv 1 -2\nv 3 0\n") == [1, -2, 3]
    assert parse_model("SAT\n1 -2 3 0\n") == [1, -2, 3]
    assert parse_model("c note\n1 -2 3\n") == [1, -2, 3]
    assert parse_model("v\nv 1 -2 0\n") == [1, -2]  # an empty v line is skipped
    with pytest.raises(ValueError):
        parse_model("s UNSATISFIABLE\n")
    with pytest.raises(ValueError):
        parse_model("v one two 0\n")
    with pytest.raises(ValueError):
        parse_model("c only comments\n")


def test_model_roundtrip_through_text():
    doc = encode(9, 3, Kind.STRONG, symmetry=True)
    model = dpll(doc.num_vars, doc.clauses)
    text = "s SATISFIABLE\nv " + " ".join(str(lit) for lit in model) + " 0\n"
    assert parse_model(text) == model
    assert check_partition(decode(parse_model(text), 9, 3), Kind.STRONG).ok


def test_clause_count_closed_form_matches_encode():
    for n in range(1, 13):
        for r in range(1, 6):
            for kind in (Kind.STRONG, Kind.WEAK):
                for symmetry in (False, True):
                    doc = encode(n, r, kind, symmetry=symmetry)
                    assert clause_count(n, r, kind, symmetry) == len(doc.clauses), (
                        n, r, kind, symmetry,
                    )
    assert clause_count(124, 6, Kind.STRONG, symmetry=True) == 479_510
    with pytest.raises(ValueError):
        clause_count(0, 3, Kind.STRONG)
