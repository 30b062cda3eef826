"""Whole-sequence fast paths against the per-position oracles.

Parsing, the constructions, their inverses and the canonical form each
check or build a whole sequence at once and look for the offending
position only once that check has failed.  These tests pin both halves
to the naive definitions in oracle.py: the accepted inputs and outputs,
and the position every error names.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gskit.construct import (
    PatternError,
    five_fold,
    inverse_five_fold,
    inverse_two_fold,
    two_fold,
)
from gskit.core import (
    Coloring,
    Kind,
    ParseError,
    canonicalize,
    is_canonical,
    parse_coloring,
    parse_coloring_with_kind,
)
from gskit.values import to_file_form

from oracle import (
    is_canonical_tuple,
    naive_bad_entry,
    naive_five_fold,
    naive_five_fold_break,
    naive_five_fold_preimage,
    naive_two_fold,
    naive_two_fold_break,
    naive_two_fold_preimage,
)

# Entries for the file form: valid, zero, leading zeros, empty (so double,
# leading and trailing spaces), non-ASCII digits and other junk.
_TOKENS = ["1", "2", "3", "12", "0", "00", "01", "007", "", "x", "-1", "+1",
           "1.0", "٢", "²", "1٣", "\t1", "1_0"]
# Characters for the compact form.
_CHARS = list("1234567890") + ["x", " ", "\t", "٢", "²", "１"]


def _file_text(tokens: list[str]) -> str:
    return f"gspartition v1 kind=strong r=1 n={len(tokens)}\n" + " ".join(tokens) + "\n"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=12))
def test_file_form_errors_name_the_oracle_entry(tokens):
    text = _file_text(tokens)
    bad = naive_bad_entry(tokens)
    if bad is None:
        coloring, _ = parse_coloring_with_kind(text)
        assert coloring.colors == tuple(int(t) for t in tokens)
        return
    pos, what = bad
    with pytest.raises(ParseError) as info:
        parse_coloring_with_kind(text)
    assert info.value.position == pos
    if what == "zero":
        assert str(info.value) == f"entry {pos} is 0; colors start at 1"
    else:
        assert str(info.value) == f"entry {pos} is not a decimal number: {tokens[pos - 1]!r}"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_CHARS), min_size=1, max_size=12), st.booleans())
def test_compact_errors_name_the_oracle_position(chars, newline):
    line = "".join(chars)
    bad = naive_bad_entry(chars)
    if bad is None:
        assert parse_coloring(line + "\n" * newline).colors == tuple(map(int, chars))
        return
    pos, what = bad
    with pytest.raises(ParseError) as info:
        parse_coloring(line + "\n" * newline)
    assert info.value.position == pos
    if what == "zero":
        assert str(info.value) == f"color 0 at position {pos}; colors start at 1"
    else:
        assert str(info.value) == f"invalid character {chars[pos - 1]!r} at position {pos}"


@pytest.mark.parametrize("text, position", [
    ("1٢٢1", 2),  # Arabic-Indic digits
    ("12²1", 3),  # superscript two
    ("1１1", 2),  # fullwidth one
])
def test_only_ascii_digits_are_colors(text, position):
    with pytest.raises(ParseError) as info:
        parse_coloring(text)
    assert info.value.position == position
    tokens = list(text)
    with pytest.raises(ParseError) as info:
        parse_coloring_with_kind(_file_text(tokens))
    assert info.value.position == position
    assert str(info.value).startswith(f"entry {position} is not a decimal number")


def test_file_form_token_too_long_to_convert():
    # int() refuses over 4,300 digits; an earlier zero entry is still named first.
    huge = "9" * 5000
    with pytest.raises(ParseError, match="entry 1 is 0"):
        parse_coloring_with_kind(_file_text(["0", huge]))
    with pytest.raises(ParseError) as info:
        parse_coloring_with_kind(_file_text(["1", huge]))
    assert info.value.position == 2
    assert str(info.value) == "entry 2 has too many digits"


def _colorings(max_n=40, max_r=5):
    return st.integers(1, max_r).flatmap(
        lambda r: st.lists(st.integers(1, r), min_size=1, max_size=max_n)
    ).map(Coloring.from_colors)


@settings(max_examples=200, deadline=None)
@given(_colorings())
def test_mappings_match_the_position_rules(c):
    assert five_fold(c).colors == naive_five_fold(c.colors)
    assert two_fold(c).colors == naive_two_fold(c.colors)
    assert (five_fold(c).r, two_fold(c).r) == (c.r + 2, c.r + 1)


@settings(max_examples=200, deadline=None)
@given(_colorings(max_r=9))
def test_text_forms_round_trip(c):
    assert str(c) == "".join(str(v) for v in c.colors)
    assert parse_coloring(str(c)) == c
    text = to_file_form(c, Kind.WEAK)
    assert text == f"gspartition v1 kind=weak r={c.r} n={c.n}\n" + " ".join(
        str(v) for v in c.colors
    ) + "\n"
    if c.r <= c.n:  # a header declaring r > n is refused
        assert parse_coloring_with_kind(text) == (c, Kind.WEAK)


def _near_image(rng: random.Random, forward, extra: int) -> Coloring:
    """An image under `forward` of a random coloring, with 0-3 entries
    recolored at random."""
    r = rng.randint(1, 4)
    base = Coloring.from_colors(rng.randint(1, r) for _ in range(rng.randint(1, 12)))
    colors = list(forward(base).colors)
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        colors[rng.randrange(len(colors))] = rng.randint(1, base.r + extra + 1)
    return Coloring(r=max(max(colors), base.r + extra), colors=tuple(colors))


@pytest.mark.parametrize("seed", range(4))
def test_inverse_errors_name_the_oracle_position(seed):
    rng = random.Random(seed)
    for inverse, forward, extra, brk, preimage in (
        (inverse_five_fold, five_fold, 2, naive_five_fold_break, naive_five_fold_preimage),
        (inverse_two_fold, two_fold, 1, naive_two_fold_break, naive_two_fold_preimage),
    ):
        for _ in range(150):
            q = _near_image(rng, forward, extra)
            position = brk(q.colors)
            if position is None:
                pre = inverse(q)
                assert pre.colors == preimage(q.colors, q.r)
                assert forward(pre).colors == q.colors
            else:
                with pytest.raises(PatternError) as info:
                    inverse(q)
                assert info.value.position == position, q


@settings(max_examples=300, deadline=None)
@given(_colorings(max_n=20))
def test_canonical_form_matches_oracle(c):
    assert is_canonical(c) == is_canonical_tuple(c.colors)
    canon = canonicalize(c)
    assert is_canonical_tuple(canon.colors)
    assert canonicalize(canon) is canon  # a canonical input comes back as is
    assert (canon is c) == is_canonical(c)
    # Same partition: two positions share a color before exactly when after.
    pairs = range(c.n)
    assert all(
        (c.colors[i] == c.colors[j]) == (canon.colors[i] == canon.colors[j])
        for i in pairs for j in pairs
    )
