"""Order-growing constructions and the maximal partitions they build.

Two mappings turn a Gallai-Schur partition into a larger one.  The
two-fold construction sends [1, m] to [1, 2m+1]: every odd integer gets a
fresh color 1 and every even 2k inherits the color of k shifted up by one.
The five-fold construction sends [1, m] to [1, 5m+4]: integers congruent
1 or 4 mod 5 get color 1, those congruent 2 or 3 mod 5 get color 2, and
every multiple 5k inherits the color of k shifted up by two.  Both
preserve the strong and the weak property, grow the color count by one
resp. two, and act on g = order + 1 by doubling resp. quintupling.

Both mappings are total functions on colorings (preservation needs a valid
input, application does not).  Their inverses demand the full structural
pattern on every position and report the first position breaking it.
Maps and inverses read each pattern from one table, `_PATTERNS`.

Maximal partitions with at most three colors form a small catalogue,
`values.BASE_CATALOGUE`: strong B1, B2, B3A, B3B and weak C1, C2, C3.
Chaining the five-fold construction from the right base (weak C3 holds
the only two-fold step) produces a maximal partition for every r, whose
order is given in closed form by `values.gs_number`.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .values import BASE_CATALOGUE, Coloring, Kind, PatternError


class MappingTag(Enum):
    """Which construction produced a partition: 2m+1 or 5m+4 growth."""

    TWO_FOLD = "TwoFold"
    FIVE_FOLD = "FiveFold"


class _Pattern(NamedTuple):
    """A construction's pattern, read by its map and its inverse: position
    x of an image of [1, m] has color `fixed[x % period - 1]`, and position
    period * k the color of k plus max(fixed), so past every fixed color.
    The image has the order `_order` gives."""

    period: int
    fixed: tuple[int, ...]
    order_error: str
    fixed_error: str
    image_error: str
    small_error: str


_PATTERNS = {
    MappingTag.TWO_FOLD: _Pattern(
        2, (1,),
        "order {n} is even; a two-fold image has odd order",
        "position {x} is odd but has color {v}, expected {want}",
        "position {x} is even but has color {v}",
        "a two-fold image has at least 2 colors and order >= 3",
    ),
    MappingTag.FIVE_FOLD: _Pattern(
        5, (1, 2, 2, 1),
        "order {n} is not congruent 4 mod 5, so not a five-fold image",
        "position {x} has color {v}, expected {want} (residue {m} mod 5)",
        "position {x} is a multiple of 5 but has color {v}",
        "a five-fold image has at least 3 colors and order >= 9",
    ),
}


def _order(tag: MappingTag, n: int, inverse: bool = False) -> int:
    """Order of the image of [1, n] under `tag`'s construction, or with
    `inverse` of its preimage: the map multiplies n + 1 by the period."""
    period = _PATTERNS[tag].period
    return (n + 1) // period - 1 if inverse else period * (n + 1) - 1


def _forward(tag: MappingTag, c: Coloring) -> Coloring:
    period, fixed = _PATTERNS[tag][:2]
    shift = max(fixed)
    out = [*fixed, 0] * c.n + [*fixed]
    out[period - 1::period] = [v + shift for v in c.colors]
    return Coloring(n=_order(tag, c.n), r=c.r + shift, colors=tuple(out))


def _inverse(tag: MappingTag, q: Coloring) -> Coloring:
    period, fixed, order_error, fixed_error, image_error, small_error = _PATTERNS[tag]
    shift = max(fixed)
    if q.n % period != period - 1:
        raise PatternError(order_error.format(n=q.n))
    # Each fixed residue has order + 1 positions, as n + 1 = period *
    # (order + 1); no image position may hold a fixed color.
    order = _order(tag, q.n, inverse=True)
    image = q.colors[period - 1::period]
    if min(image, default=shift + 1) <= shift or any(
        q.colors[i::period].count(want) != order + 1 for i, want in enumerate(fixed)
    ):
        # Only here, once the whole-sequence check has failed, is the
        # offending position looked for.
        for x, v in enumerate(q.colors, start=1):
            m = x % period
            if m and v != fixed[m - 1]:
                message = fixed_error.format(x=x, v=v, want=fixed[m - 1], m=m)
                raise PatternError(message, position=x)
            if not m and v <= shift:
                raise PatternError(image_error.format(x=x, v=v), position=x)
    if q.r <= shift or q.n < 2 * period - 1:
        raise PatternError(small_error)
    colors = tuple([v - shift for v in image])
    return Coloring(n=order, r=q.r - shift, colors=colors)


def two_fold(p: Coloring) -> Coloring:
    """Map a coloring of [1, n] to one of [1, 2n+1] with one extra color.

    Odd positions get color 1; even position 2k gets the color of k plus
    one.  Canonical inputs give canonical outputs.
    """
    return _forward(MappingTag.TWO_FOLD, p)


def five_fold(p: Coloring) -> Coloring:
    """Map a coloring of [1, n] to one of [1, 5n+4] with two extra colors.

    Residues 1 and 4 mod 5 get color 1, residues 2 and 3 get color 2, and
    position 5k gets the color of k plus two.  Canonical inputs give
    canonical outputs.
    """
    return _forward(MappingTag.FIVE_FOLD, p)


def inverse_two_fold(q: Coloring) -> Coloring:
    """Undo `two_fold`; the input must carry its exact structural pattern.

    Requires odd n >= 3, color 1 exactly on the odd positions, and r >= 2.
    Raises PatternError naming the first offending position otherwise.
    """
    return _inverse(MappingTag.TWO_FOLD, q)


def inverse_five_fold(q: Coloring) -> Coloring:
    """Undo `five_fold`; the input must carry its exact structural pattern.

    Requires n = 4 mod 5 with n >= 9, color 1 exactly on residues 1 and 4
    mod 5, color 2 exactly on residues 2 and 3, and r >= 3.  Raises
    PatternError naming the first offending position otherwise.
    """
    return _inverse(MappingTag.FIVE_FOLD, q)


def apply_mappings(base: Coloring, tags: Iterable[MappingTag]) -> Coloring:
    """Apply a chain of constructions to a base, innermost tag first."""
    c = base
    for tag in tags:
        c = _forward(tag, c)
    return c


def base_by_name(name: str) -> tuple[Kind, Coloring]:
    key = name.upper()
    if key not in BASE_CATALOGUE:
        known = ", ".join(BASE_CATALOGUE)
        raise ValueError(f"unknown base {name!r}; known bases: {known}")
    kind, compact = BASE_CATALOGUE[key]
    return kind, Coloring.from_colors(map(int, compact))


def base_partitions(kind: Kind) -> list[Coloring]:
    """The catalogued maximal partitions with at most three colors."""
    return [
        Coloring.from_colors(map(int, compact))
        for k, compact in BASE_CATALOGUE.values()
        if k is kind
    ]


def maximal_partition(r: int, kind: Kind) -> Coloring:
    """A maximal Gallai-Schur partition with exactly r colors.

    Starts from the catalogue base of the same kind whose color count has
    the parity of r (strong B2 or B1; weak C2, or C3 for odd r > 1 and C1
    for r = 1) and applies the five-fold construction (r - base.r) / 2
    times; weak C3 is the only base holding a two-fold step.  The result
    is canonical, has order gs_number(r, kind) - 1, and passes the
    verifier for its kind.
    """
    if r < 1:
        raise ValueError(f"color count must be positive, got {r}")
    if kind is Kind.STRONG:
        name = "B1" if r % 2 else "B2"
    else:
        name = "C1" if r == 1 else "C3" if r % 2 else "C2"
    _, c = base_by_name(name)
    for _ in range((r - c.r) // 2):
        c = five_fold(c)
    return c
