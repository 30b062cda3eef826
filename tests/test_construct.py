"""Constructions, their inverses, the catalogue, and the closed forms."""

from __future__ import annotations

import pytest

from gskit.core import Coloring, Kind, check_partition, is_canonical, parse_coloring
from gskit.construct import (
    BASE_CATALOGUE,
    MappingTag,
    PatternError,
    apply_mappings,
    base_by_name,
    base_partitions,
    five_fold,
    inverse_five_fold,
    inverse_two_fold,
    maximal_partition,
    two_fold,
)
from gskit.values import gs_number


def test_two_fold_values():
    assert str(two_fold(parse_coloring("1"))) == "121"
    assert str(two_fold(parse_coloring("1221"))) == "121313121"
    assert str(two_fold(parse_coloring("11212221"))) == "12121312131313121"


def test_five_fold_matches_position_rule():
    # Recompute the expected images from the definition, position by
    # position, independently of the implementation's loop.
    for compact in ("1", "11", "1221"):
        base = parse_coloring(compact)
        expected = []
        for x in range(1, 5 * base.n + 5):
            m = x % 5
            if m in (1, 4):
                expected.append(1)
            elif m in (2, 3):
                expected.append(2)
            else:
                expected.append(base.color_of(x // 5) + 2)
        image = five_fold(base)
        assert image.colors == tuple(expected)
        assert image.n == 5 * base.n + 4
        assert image.r == base.r + 2


def test_five_fold_values():
    assert str(five_fold(parse_coloring("1"))) == "122131221"
    assert str(five_fold(parse_coloring("11"))) == "12213122131221"
    assert (
        str(five_fold(parse_coloring("1221")))
        == "122131221412214122131221"
    )


def test_mappings_grow_size_and_colors():
    p = parse_coloring("122131221")
    t2, t5 = two_fold(p), five_fold(p)
    assert (t2.n, t2.r) == (2 * p.n + 1, p.r + 1)
    assert (t5.n, t5.r) == (5 * p.n + 4, p.r + 2)


def test_mappings_preserve_both_kinds():
    for kind, compact in BASE_CATALOGUE.values():
        p = parse_coloring(compact)
        assert check_partition(p, kind).ok
        assert check_partition(two_fold(p), kind).ok
        assert check_partition(five_fold(p), kind).ok


def test_mappings_preserve_canonical_form():
    for _, compact in BASE_CATALOGUE.values():
        p = parse_coloring(compact)
        assert is_canonical(two_fold(p))
        assert is_canonical(five_fold(p))


def test_inverse_roundtrips():
    # Inverses are structural, so they round-trip arbitrary colorings.
    for colors in [(1,), (1, 2, 2, 1), (2, 1, 3), (1, 1, 1, 1, 1)]:
        p = Coloring(n=len(colors), r=max(colors), colors=colors)
        assert inverse_two_fold(two_fold(p)) == p
        assert inverse_five_fold(five_fold(p)) == p


def test_inverse_two_fold_pattern_errors():
    with pytest.raises(PatternError):
        inverse_two_fold(parse_coloring("11"))  # even order
    with pytest.raises(PatternError) as exc:
        inverse_two_fold(parse_coloring("111"))  # even position colored 1
    assert exc.value.position == 2
    with pytest.raises(PatternError) as exc:
        inverse_two_fold(parse_coloring("221"))  # odd position not colored 1
    assert exc.value.position == 1
    with pytest.raises(PatternError):
        inverse_two_fold(parse_coloring("1"))  # too small to have a preimage


def test_inverse_five_fold_pattern_errors():
    with pytest.raises(PatternError):
        inverse_five_fold(parse_coloring("1221"))  # wrong order residue
    with pytest.raises(PatternError) as exc:
        inverse_five_fold(parse_coloring("122231221"))
    assert exc.value.position == 4
    with pytest.raises(PatternError) as exc:
        inverse_five_fold(parse_coloring("122111221"))
    assert exc.value.position == 5
    with pytest.raises(PatternError):
        inverse_five_fold(Coloring(n=4, r=3, colors=(1, 2, 2, 1)))


def test_apply_mappings_innermost_first():
    base = parse_coloring("1")
    chain = apply_mappings(base, [MappingTag.FIVE_FOLD, MappingTag.TWO_FOLD])
    assert chain == two_fold(five_fold(base))
    assert apply_mappings(base, []) == base


def test_base_catalogue_contents():
    assert BASE_CATALOGUE["B1"] == (Kind.STRONG, "1")
    assert BASE_CATALOGUE["B2"] == (Kind.STRONG, "1221")
    assert BASE_CATALOGUE["B3A"] == (Kind.STRONG, "122131221")
    assert BASE_CATALOGUE["B3B"] == (Kind.STRONG, "121313121")
    assert BASE_CATALOGUE["C1"] == (Kind.WEAK, "11")
    assert BASE_CATALOGUE["C2"] == (Kind.WEAK, "11212221")
    assert BASE_CATALOGUE["C3"] == (Kind.WEAK, "12121312131313121")


def test_base_catalogue_relations():
    # The three-color bases are images of the smaller ones.
    assert str(five_fold(parse_coloring("1"))) == BASE_CATALOGUE["B3A"][1]
    assert str(two_fold(parse_coloring("1221"))) == BASE_CATALOGUE["B3B"][1]
    assert str(two_fold(parse_coloring("11212221"))) == BASE_CATALOGUE["C3"][1]


def test_base_by_name():
    kind, c = base_by_name("b2")
    assert kind is Kind.STRONG and str(c) == "1221"
    with pytest.raises(ValueError):
        base_by_name("B9")


def test_base_partitions_split_by_kind():
    assert [str(c) for c in base_partitions(Kind.STRONG)] == [
        "1",
        "1221",
        "122131221",
        "121313121",
    ]
    assert [str(c) for c in base_partitions(Kind.WEAK)] == [
        "11",
        "11212221",
        "12121312131313121",
    ]


def test_gs_number_closed_forms():
    assert [gs_number(r, Kind.STRONG).value for r in range(1, 7)] == [
        2,
        5,
        10,
        25,
        50,
        125,
    ]
    assert [gs_number(r, Kind.WEAK).value for r in range(1, 7)] == [
        3,
        9,
        18,
        45,
        90,
        225,
    ]
    v = gs_number(3, Kind.WEAK)
    assert (v.r, v.kind, v.value) == (3, Kind.WEAK, 18)
    with pytest.raises(ValueError):
        gs_number(0, Kind.STRONG)


def test_weak_strong_ratio():
    for r in range(2, 13):
        assert gs_number(r, Kind.WEAK).value * 5 == gs_number(r, Kind.STRONG).value * 9


def test_maximal_partition_orders():
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in range(1, 13):
            c = maximal_partition(r, kind)
            assert c.r == r
            assert c.n == gs_number(r, kind).value - 1
            assert is_canonical(c)


def test_maximal_partition_verifies():
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in range(1, 7):
            c = maximal_partition(r, kind)
            assert check_partition(c, kind).ok, (kind, r)
