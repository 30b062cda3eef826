"""Verifier, parsers, and canonical form."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gskit.construct import maximal_partition
from gskit.core import (
    Coloring,
    Kind,
    ParseError,
    Violation,
    ViolationClass,
    canonicalize,
    _bad_sums,
    check_partition,
    color_classes,
    is_canonical,
    parse_coloring,
    parse_coloring_with_kind,
    to_file_form,
)

from oracle import naive_ok, naive_pairs_at, naive_violations


def test_kind_from_name():
    assert Kind.from_name("strong") is Kind.STRONG
    assert Kind.from_name("weak") is Kind.WEAK
    with pytest.raises(ValueError):
        Kind.from_name("medium")


def test_parse_compact_roundtrip():
    c = parse_coloring("1221")
    assert (c.n, c.r) == (4, 2)
    assert c.colors == (1, 2, 2, 1)
    assert c.compact() == "1221"
    assert str(c) == "1221"


def test_parse_compact_rejects_bad_characters():
    with pytest.raises(ParseError) as exc:
        parse_coloring("1x1")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_coloring("")
    with pytest.raises(ParseError):
        parse_coloring("120")


def test_file_form_roundtrip():
    c = parse_coloring("122131221")
    text = to_file_form(c, Kind.STRONG)
    assert text == "gspartition v1 kind=strong r=3 n=9\n1 2 2 1 3 1 2 2 1\n"
    back, declared = parse_coloring_with_kind(text)
    assert back == c
    assert declared is Kind.STRONG


def test_file_form_declares_kind_or_none():
    _, declared = parse_coloring_with_kind("1221")
    assert declared is None
    _, declared = parse_coloring_with_kind(
        "gspartition v1 kind=weak r=1 n=2\n1 1\n"
    )
    assert declared is Kind.WEAK


def test_file_form_header_mismatches():
    with pytest.raises(ParseError):
        parse_coloring("gspartition v1 kind=strong r=2 n=3\n1 2 2 1\n")
    with pytest.raises(ParseError):
        parse_coloring("gspartition v2 kind=strong r=2 n=4\n1 2 2 1\n")
    with pytest.raises(ParseError):
        parse_coloring("gspartition v1 kind=strong r=2 n=4\n1 2 0 1\n")


def test_file_form_refuses_declared_r_above_n():
    # No partition of [1, n] has more than n colors; refusing the header
    # keeps a tiny file from costing O(r) work downstream.
    with pytest.raises(ParseError) as exc:
        parse_coloring("gspartition v1 kind=strong r=3000000 n=4\n1 2 2 1\n")
    assert str(exc.value) == (
        "declared r=3000000 exceeds n=4; a partition of [1, n] has at most n colors"
    )
    assert exc.value.position == 1
    c = parse_coloring("gspartition v1 kind=strong r=4 n=4\n1 2 2 1\n")
    assert [v.color for v in check_partition(c, Kind.STRONG, exhaustive=True).violations] == [3, 4]


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(n=0, r=1, colors=())
    with pytest.raises(ValueError):
        Coloring(n=2, r=1, colors=(1,))
    with pytest.raises(ValueError):
        Coloring(n=1, r=1, colors=(0,))
    with pytest.raises(ValueError):
        Coloring(n=3, r=12, colors=(1, 11, 12)).compact()


def test_verifier_weak_pair_is_strong_only():
    c = parse_coloring("11")
    strong = check_partition(c, Kind.STRONG)
    assert not strong.ok
    assert strong.violations[0].category is ViolationClass.MONOCHROMATIC_SUM
    assert strong.violations[0].triple == (1, 1, 2)
    assert check_partition(c, Kind.WEAK).ok


def test_verifier_rainbow():
    c = parse_coloring("123")
    for kind in (Kind.STRONG, Kind.WEAK):
        verdict = check_partition(c, kind)
        assert not verdict.ok
        assert verdict.violations[0].category is ViolationClass.RAINBOW_SUM
        assert verdict.violations[0].triple == (1, 2, 3)


def test_verifier_empty_color():
    c = Coloring(n=2, r=2, colors=(1, 1))
    verdict = check_partition(c, Kind.WEAK)
    assert not verdict.ok
    assert verdict.violations[0].category is ViolationClass.EMPTY_COLOR
    assert verdict.violations[0].color == 2


def test_verifier_bad_color_range_reported_first():
    c = Coloring(n=3, r=2, colors=(1, 2, 3))
    verdict = check_partition(c, Kind.STRONG)
    assert not verdict.ok
    assert verdict.violations[0].category is ViolationClass.BAD_COLOR_RANGE
    assert verdict.violations[0].color == 3


def test_verifier_exhaustive_collects_everything():
    c = parse_coloring("111")
    verdict = check_partition(c, Kind.STRONG, exhaustive=True)
    triples = [v.triple for v in verdict.violations]
    assert triples == [(1, 1, 2), (1, 2, 3)]
    short = check_partition(c, Kind.STRONG)
    assert len(short.violations) == 1


def test_describe_strings():
    assert (
        Violation(ViolationClass.MONOCHROMATIC_SUM, triple=(1, 1, 2)).describe()
        == "monochromatic (1, 1, 2)"
    )
    assert (
        Violation(ViolationClass.RAINBOW_SUM, triple=(1, 2, 3)).describe()
        == "rainbow (1, 2, 3)"
    )
    assert Violation(ViolationClass.EMPTY_COLOR, color=2).describe() == "empty color 2"


def test_canonicalize():
    assert canonicalize(parse_coloring("2112")).compact() == "1221"
    assert canonicalize(parse_coloring("321")).compact() == "123"
    c = parse_coloring("1221")
    assert canonicalize(c) == c
    assert is_canonical(c)
    assert not is_canonical(parse_coloring("2112"))


def test_canonicalize_idempotent_and_unused_colors():
    c = Coloring(n=3, r=4, colors=(3, 1, 3))
    canon = canonicalize(c)
    assert canon.colors == (1, 2, 1)
    assert canon.r == 4
    assert canonicalize(canon) == canon
    with pytest.raises(ValueError):
        canonicalize(Coloring(n=2, r=1, colors=(1, 2)))


def test_verdict_invariant_under_relabeling():
    base = parse_coloring("122131221")
    for perm in itertools.permutations((1, 2, 3)):
        relabeled = Coloring(
            n=base.n, r=base.r, colors=tuple(perm[v - 1] for v in base.colors)
        )
        for kind in (Kind.STRONG, Kind.WEAK):
            assert (
                check_partition(relabeled, kind).ok
                == check_partition(base, kind).ok
            )
        assert canonicalize(relabeled) == base


def test_color_classes_partition():
    c = parse_coloring("1221")
    classes = color_classes(c)
    assert classes == [{1, 4}, {2, 3}]
    assert set().union(*classes) == {1, 2, 3, 4}


def test_verifier_matches_naive_oracle_small():
    for kind in (Kind.STRONG, Kind.WEAK):
        for n in range(1, 9):
            for colors in itertools.product((1, 2, 3), repeat=n):
                c = Coloring(n=n, r=max(colors), colors=colors)
                got = check_partition(c, kind).ok
                want = naive_ok(colors, kind.value) and set(colors) == set(
                    range(1, c.r + 1)
                )
                assert got == want, (kind, colors)


def _entries(verdict):
    return [(v.category.value, v.triple, v.color) for v in verdict.violations]


_BASES = [
    maximal_partition(r, kind).colors
    for kind in (Kind.STRONG, Kind.WEAK)
    for r in (3, 5, 6)
]


@st.composite
def _colorings(draw):
    """A prefix of a maximal partition with a few entries recolored (few
    failing sums; colors may exceed r or go missing), or an arbitrary
    coloring, up to one color class per entry."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(_BASES))
        colors = list(base[: draw(st.integers(1, len(base)))])
        for _ in range(draw(st.integers(0, 3))):
            pos = draw(st.integers(0, len(colors) - 1))
            colors[pos] = draw(st.integers(1, max(colors) + 2))
    else:
        k = draw(st.integers(1, 60))
        colors = draw(st.lists(st.integers(1, k), min_size=1, max_size=150))
    r = max(1, max(colors) + draw(st.integers(-2, 2)))
    return tuple(colors), r


@settings(max_examples=300, deadline=None)
@given(case=_colorings(), kind=st.sampled_from(list(Kind)), exhaustive=st.booleans())
def test_verifier_witnesses_match_naive_oracle(case, kind, exhaustive):
    colors, r = case
    verdict = check_partition(Coloring(n=len(colors), r=r, colors=colors), kind, exhaustive)
    assert _entries(verdict) == naive_violations(colors, r, kind.value, exhaustive)


def test_verifier_scans_only_failing_sums():
    # With a few large classes the masks name exactly the c with a bad pair.
    base = maximal_partition(6, Kind.STRONG).colors
    for pos, color in ((1, 2), (7, 1), (60, 3), (61, 7), (124, 1)):
        colors = base[: pos - 1] + (color,) + base[pos:]
        for kind in Kind:
            want = [c for c in range(2, 125) if naive_pairs_at(colors, c, kind.value)]
            assert list(_bad_sums(colors, kind is Kind.STRONG)) == want
    assert list(_bad_sums(base, True)) == []
    # Sums whose only bad pair is a + a or a + (a + 1), at the end of the
    # first prefix (64) and at the end of the coloring (65).
    for n, ones in ((100, (32, 64)), (65, (32, 33, 65))):
        colors = tuple(1 if x in ones else 2 for x in range(1, n + 1))
        for kind in Kind:
            want = [c for c in range(2, len(colors) + 1)
                    if naive_pairs_at(colors, c, kind.value)]
            assert list(_bad_sums(colors, kind is Kind.STRONG)) == want


def test_verifier_accepts_strong_r11_and_r12_maximal():
    for r, n in ((11, 6249), (12, 15624)):
        c = maximal_partition(r, Kind.STRONG)
        assert c.n == n
        assert check_partition(c, Kind.STRONG).ok


def test_verifier_r12_mutant_reports_first_pair_at_mutation():
    base = maximal_partition(12, Kind.STRONG).colors
    pos = 10_001
    colors = base[: pos - 1] + (base[pos - 1] % 12 + 1,) + base[pos:]
    # Every triple below pos is untouched, so the first witness has c = pos.
    first = naive_pairs_at(colors, pos, "strong")
    assert first
    verdict = check_partition(Coloring(n=len(colors), r=12, colors=colors), Kind.STRONG)
    assert _entries(verdict) == [first[0] + (None,)]
