"""Acceptance gate: one test per criterion, exact expected values.

Each test prints a single PASS line on success; under `pytest -v` the
per-test PASSED/FAILED row doubles as the per-criterion verdict.
"""

from __future__ import annotations

import itertools

from gskit.core import Coloring, Kind, check_partition, parse_coloring
from gskit.construct import (
    BASE_CATALOGUE,
    MappingTag,
    five_fold,
    inverse_five_fold,
    inverse_two_fold,
    maximal_partition,
    two_fold,
)
from gskit.satgen import encode, satisfies
from gskit.search import (
    SearchConfig,
    SearchMode,
    enumerate_maximal,
    max_order,
    report_json,
    run_search,
)
from gskit.structure import StructureClass, classify, decompose_full, peel
from gskit.values import gs_number

from oracle import naive_enumerate, naive_ok


def test_criterion_1_catalogue_verification():
    for name, (kind, compact) in BASE_CATALOGUE.items():
        c = parse_coloring(compact)
        assert check_partition(c, kind).ok, name
    for name in ("B2", "C2"):
        kind, compact = BASE_CATALOGUE[name]
        base = parse_coloring(compact)
        for pos in range(base.n):
            for other in range(1, base.r + 1):
                if other == base.colors[pos]:
                    continue
                mutated = list(base.colors)
                mutated[pos] = other
                bad = Coloring(n=base.n, r=base.r, colors=tuple(mutated))
                assert not check_partition(bad, kind).ok, (name, pos, other)
    print("PASS criterion 1: catalogue verifies; single mutations all fail")


def test_criterion_2_closed_form_table():
    assert [gs_number(r, Kind.STRONG).value for r in range(1, 7)] == [
        2, 5, 10, 25, 50, 125,
    ]
    assert [gs_number(r, Kind.WEAK).value for r in range(1, 7)] == [
        3, 9, 18, 45, 90, 225,
    ]
    print("PASS criterion 2: closed forms match for r = 1..6, both kinds")


def test_criterion_3_search_agrees_with_formula():
    expected = {Kind.STRONG: [1, 4, 9, 24], Kind.WEAK: [2, 8, 17, 44]}
    for kind, maxima in expected.items():
        for r, m in enumerate(maxima, start=1):
            limit = gs_number(r, kind).value - 1 + 5
            assert max_order(kind, r, limit) == (m, True), (kind, r)
            assert m == gs_number(r, kind).value - 1
    print("PASS criterion 3: max_order confirms the formula for r = 1..4")


def test_criterion_4_enumeration_counts():
    expected = {
        (Kind.STRONG, 2): 1,
        (Kind.STRONG, 3): 2,
        (Kind.WEAK, 2): 1,
        (Kind.WEAK, 3): 1,
        (Kind.STRONG, 4): 1,
        (Kind.WEAK, 4): 1,
    }
    for (kind, r), count in expected.items():
        witnesses = enumerate_maximal(kind, r).report.witnesses
        assert len(witnesses) == count, (kind, r, len(witnesses))
    print("PASS criterion 4: maximal partition counts match, r = 2..4")


def test_criterion_5_mapping_closure_property():
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in (1, 2, 3):
            for n in range(1, 11):
                cfg = SearchConfig(
                    kind=kind, r=r, n=n, mode=SearchMode.ENUMERATE_ALL
                )
                report = run_search(cfg)
                assert report.exhausted
                for w in report.witnesses:
                    t2, t5 = two_fold(w), five_fold(w)
                    assert (t2.n, t2.r) == (2 * w.n + 1, w.r + 1)
                    assert (t5.n, t5.r) == (5 * w.n + 4, w.r + 2)
                    assert check_partition(t2, kind).ok
                    assert check_partition(t5, kind).ok
                    assert inverse_two_fold(t2) == w
                    assert inverse_five_fold(t5) == w
    print("PASS criterion 5: closure and inverse identities, n <= 10, r <= 3")


def test_criterion_6_structure_of_maximal_partitions():
    for kind in (Kind.STRONG, Kind.WEAK):
        for w in enumerate_maximal(kind, 4).report.witnesses:
            cls = classify(w)
            assert cls in (
                StructureClass.FIVE_FOLD_IMAGE,
                StructureClass.TWO_FOLD_IMAGE,
            )
            _, preimage = peel(w)
            assert check_partition(preimage, kind).ok
    catalogue = {
        Kind.STRONG: {c for _, (k, c) in BASE_CATALOGUE.items() if k is Kind.STRONG},
        Kind.WEAK: {c for _, (k, c) in BASE_CATALOGUE.items() if k is Kind.WEAK},
    }
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in range(1, 13):
            dec = decompose_full(maximal_partition(r, kind))
            assert str(dec.base) in catalogue[kind], (kind, r)
            assert sum(t is MappingTag.TWO_FOLD for t in dec.tags) <= 1
            assert dec.replay() == maximal_partition(r, kind)
    print("PASS criterion 6: maximal partitions decompose to catalogue bases")


def test_criterion_7_oracle_equivalence():
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in (1, 2, 3):
            for n in range(1, 13):
                cfg = SearchConfig(
                    kind=kind, r=r, n=n, mode=SearchMode.ENUMERATE_ALL
                )
                got = [w.colors for w in run_search(cfg).witnesses]
                assert got == naive_enumerate(kind.value, r, n), (kind, r, n)
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in (1, 2, 3):
            for n in range(1, 7):
                doc = encode(n, r, kind)
                for colors in itertools.product(range(1, r + 1), repeat=n):
                    c = Coloring(n=n, r=r, colors=colors)
                    want = naive_ok(colors, kind.value) and set(colors) == set(
                        range(1, r + 1)
                    )
                    assert satisfies(doc, c) == want, (kind, r, colors)
    print("PASS criterion 7: search and CNF agree with the naive oracle")


def test_criterion_8_weak_strong_ratio():
    for r in range(2, 13):
        assert (
            gs_number(r, Kind.WEAK).value * 5 == gs_number(r, Kind.STRONG).value * 9
        ), r
    print("PASS criterion 8: WGS(r) * 5 = GS(r) * 9 for r = 2..12")


def test_criterion_9_parallel_determinism():
    cfg = SearchConfig(
        kind=Kind.STRONG, r=4, n=24, mode=SearchMode.ENUMERATE_ALL
    )
    outputs = {
        workers: report_json(cfg, run_search(cfg, workers=workers))
        for workers in (1, 2, 8)
    }
    assert outputs[1] == outputs[2] == outputs[8]
    print("PASS criterion 9: byte-identical reports for 1, 2, 8 workers")
