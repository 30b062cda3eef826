"""Order-growing constructions, the base catalogue, and the closed forms.

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

Maximal partitions with at most three colors form a small catalogue:
strong B1, B2, B3A, B3B and weak C1, C2, C3.  Chaining the five-fold
construction from the right base (with at most one two-fold step, already
folded into the odd-r bases) produces a maximal partition for every r,
whose order is given in closed form by `gs_number`.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .core import Coloring, Kind, Record, _set


class MappingTag(Enum):
    """Which construction produced a partition: 2m+1 or 5m+4 growth."""

    TWO_FOLD = "TwoFold"
    FIVE_FOLD = "FiveFold"


class PatternError(ValueError):
    """Input does not match the structural pattern an inverse mapping needs."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class GsFunctionValue(Record):
    """The Gallai-Schur number GS(r) or WGS(r); one above the maximal order."""

    __slots__ = ("r", "kind", "value")

    def __init__(self, r: int, kind: Kind, value: int):
        _set(self, "r", r)
        _set(self, "kind", kind)
        _set(self, "value", value)


def two_fold(p: Coloring) -> Coloring:
    """Map a coloring of [1, n] to one of [1, 2n+1] with one extra color.

    Odd positions get color 1; even position 2k gets the color of k plus
    one.  Canonical inputs give canonical outputs.
    """
    out = [1] * (2 * p.n + 1)
    out[1::2] = [v + 1 for v in p.colors]
    return Coloring(n=2 * p.n + 1, r=p.r + 1, colors=tuple(out))


def five_fold(p: Coloring) -> Coloring:
    """Map a coloring of [1, n] to one of [1, 5n+4] with two extra colors.

    Residues 1 and 4 mod 5 get color 1, residues 2 and 3 get color 2, and
    position 5k gets the color of k plus two.  Canonical inputs give
    canonical outputs.
    """
    out = [1, 2, 2, 1, 0] * p.n + [1, 2, 2, 1]
    out[4::5] = [v + 2 for v in p.colors]
    return Coloring(n=5 * p.n + 4, r=p.r + 2, colors=tuple(out))


def inverse_two_fold(q: Coloring) -> Coloring:
    """Undo `two_fold`; the input must carry its exact structural pattern.

    Requires odd n >= 3, color 1 exactly on the odd positions, and r >= 2.
    Raises PatternError naming the first offending position otherwise.
    """
    if q.n % 2 == 0:
        raise PatternError(f"order {q.n} is even; a two-fold image has odd order")
    odd, even = q.colors[0::2], q.colors[1::2]
    if odd.count(1) != len(odd) or 1 in even:
        # Only here, once the whole-sequence check has failed, is the
        # offending position looked for.
        for x in range(1, q.n + 1):
            v = q.color_of(x)
            if x % 2 == 1 and v != 1:
                raise PatternError(
                    f"position {x} is odd but has color {v}, expected 1", position=x
                )
            if x % 2 == 0 and v == 1:
                raise PatternError(
                    f"position {x} is even but has color 1", position=x
                )
    if q.r < 2 or q.n < 3:
        raise PatternError("a two-fold image has at least 2 colors and order >= 3")
    colors = tuple([v - 1 for v in even])
    return Coloring(n=(q.n - 1) // 2, r=q.r - 1, colors=colors)


def inverse_five_fold(q: Coloring) -> Coloring:
    """Undo `five_fold`; the input must carry its exact structural pattern.

    Requires n = 4 mod 5 with n >= 9, color 1 exactly on residues 1 and 4
    mod 5, color 2 exactly on residues 2 and 3, and r >= 3.  Raises
    PatternError naming the first offending position otherwise.
    """
    if q.n % 5 != 4:
        raise PatternError(
            f"order {q.n} is not congruent 4 mod 5, so not a five-fold image"
        )
    # Residues 1, 2, 3 and 4 mod 5 each have (n + 1) / 5 positions.
    size = (q.n + 1) // 5
    image = q.colors[4::5]
    if (
        any(q.colors[i::5].count(v) != size for i, v in ((0, 1), (1, 2), (2, 2), (3, 1)))
        or 1 in image
        or 2 in image
    ):
        # Only here, once the whole-sequence check has failed, is the
        # offending position looked for.
        for x in range(1, q.n + 1):
            v = q.color_of(x)
            m = x % 5
            if m in (1, 4):
                if v != 1:
                    raise PatternError(
                        f"position {x} has color {v}, expected 1 (residue {m} mod 5)",
                        position=x,
                    )
            elif m in (2, 3):
                if v != 2:
                    raise PatternError(
                        f"position {x} has color {v}, expected 2 (residue {m} mod 5)",
                        position=x,
                    )
            elif v in (1, 2):
                raise PatternError(
                    f"position {x} is a multiple of 5 but has color {v}", position=x
                )
    if q.r < 3 or q.n < 9:
        raise PatternError("a five-fold image has at least 3 colors and order >= 9")
    colors = tuple([v - 2 for v in image])
    return Coloring(n=(q.n - 4) // 5, r=q.r - 2, colors=colors)


def apply_mappings(base: Coloring, tags: Iterable[MappingTag]) -> Coloring:
    """Apply a chain of constructions to a base, innermost tag first."""
    c = base
    for tag in tags:
        c = two_fold(c) if tag is MappingTag.TWO_FOLD else five_fold(c)
    return c


# Maximal partitions with r <= 3 colors, keyed by catalogue name.  B3A is
# the five-fold image of B1 and B3B the two-fold image of B2; likewise C3
# is the two-fold image of C2.
BASE_CATALOGUE: dict[str, tuple[Kind, str]] = {
    "B1": (Kind.STRONG, "1"),
    "B2": (Kind.STRONG, "1221"),
    "B3A": (Kind.STRONG, "122131221"),
    "B3B": (Kind.STRONG, "121313121"),
    "C1": (Kind.WEAK, "11"),
    "C2": (Kind.WEAK, "11212221"),
    "C3": (Kind.WEAK, "12121312131313121"),
}


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


def gs_number(r: int, kind: Kind) -> GsFunctionValue:
    """Closed-form strong/weak Gallai-Schur number.

    Strong: 5^(r/2) for even r and 2 * 5^((r-1)/2) for odd r.  Weak: the
    exceptional 3 at r = 1, then 9 * 5^((r-2)/2) for even r and
    18 * 5^((r-3)/2) for odd r.  The weak value is 9/5 of the strong one
    for every r > 1.
    """
    if r < 1:
        raise ValueError(f"color count must be positive, got {r}")
    if kind is Kind.STRONG:
        value = 5 ** (r // 2) if r % 2 == 0 else 2 * 5 ** ((r - 1) // 2)
    elif r == 1:
        value = 3
    elif r % 2 == 0:
        value = 9 * 5 ** ((r - 2) // 2)
    else:
        value = 18 * 5 ** ((r - 3) // 2)
    return GsFunctionValue(r=r, kind=kind, value=value)


def maximal_partition(r: int, kind: Kind) -> Coloring:
    """A maximal Gallai-Schur partition with exactly r colors.

    Starts from the catalogue base matching the parity of r and applies the
    five-fold construction the remaining number of times, so at most one
    two-fold step appears (folded into B3B-free odd bases B3A and C3).  The
    result is canonical, has order gs_number(r, kind) - 1, and passes the
    verifier for its kind.
    """
    if r < 1:
        raise ValueError(f"color count must be positive, got {r}")
    if kind is Kind.STRONG:
        if r == 1:
            name, steps = "B1", 0
        elif r % 2 == 0:
            name, steps = "B2", (r - 2) // 2
        else:
            name, steps = "B3A", (r - 3) // 2
    else:
        if r == 1:
            name, steps = "C1", 0
        elif r % 2 == 0:
            name, steps = "C2", (r - 2) // 2
        else:
            name, steps = "C3", (r - 3) // 2
    _, c = base_by_name(name)
    for _ in range(steps):
        c = five_fold(c)
    return c
