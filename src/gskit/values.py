"""The value types every layer shares, and the closed forms.

This module imports nothing from gskit, so a layer that needs only these
types (search, satgen, the CLI's argument parser) loads them without the
verifier or the constructions.  It holds the criterion selector `Kind`,
the immutable `Record` base, the `Coloring` of [1, n], the two input
errors the CLI maps to exit codes, the catalogue of maximal partitions
with at most three colors, and the closed-form Gallai-Schur numbers.
"""

from __future__ import annotations

from enum import Enum


class Kind(Enum):
    """Strong or weak criterion selector for the monochromatic check."""

    STRONG = "strong"
    WEAK = "weak"

    @classmethod
    def from_name(cls, name: str) -> Kind:
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown kind {name!r}; expected 'strong' or 'weak'") from None


_set = object.__setattr__


class Record:
    """Base of the immutable value types (colorings, verdicts, reports).

    A subclass names its fields, in constructor order, as `__slots__` and
    stores them in its own `__init__` with `object.__setattr__`.  The base
    gives what a frozen dataclass would: equality by type and fields, the
    hash of the field tuple, the `Name(field=value, ...)` repr, assignment
    and deletion raising AttributeError, and pickling through the
    constructor (the process pool needs it).
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class ParseError(ValueError):
    """Malformed partition text; `position` is the 1-based offending spot."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class PatternError(ValueError):
    """Input does not match the structural pattern an inverse mapping needs."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class Coloring(Record):
    """A total coloring of [1, n] with colors drawn from [1, r].

    `colors[i - 1]` is the color of integer i.  Entries are validated to be
    positive; an entry above the declared r is representable (the explicit
    file format allows it) and is reported by the verifier as a
    BadColorRange violation rather than rejected here.
    """

    __slots__ = ("n", "r", "colors")

    def __init__(self, n: int, r: int, colors: tuple[int, ...]):
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        if r < 1:
            raise ValueError(f"color count must be positive, got {r}")
        if len(colors) != n:
            raise ValueError(f"expected {n} entries, got {len(colors)}")
        if min(colors) < 1:
            raise ValueError("color entries must be >= 1")
        _set(self, "n", n)
        _set(self, "r", r)
        _set(self, "colors", colors)

    @classmethod
    def from_colors(cls, colors) -> Coloring:
        """Build a coloring from a color sequence, inferring r as the maximum."""
        colors = tuple(colors)
        return cls(n=len(colors), r=max(colors), colors=colors)

    def color_of(self, i: int) -> int:
        return self.colors[i - 1]

    def compact(self) -> str:
        """Digit-string form; only defined while every entry is a single digit."""
        if max(self.colors) > 9:
            raise ValueError("compact form requires all colors <= 9")
        return _join_decimal(self.colors, "")

    def __str__(self) -> str:
        try:
            return self.compact()
        except ValueError:
            return _join_decimal(self.colors, " ")


def _join_decimal(colors, sep: str) -> str:
    """Colors as decimal text joined by `sep`, formatting each distinct one once."""
    text = {v: str(v) for v in set(colors)}
    return sep.join(map(text.__getitem__, colors))


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


class GsFunctionValue(Record):
    """The Gallai-Schur number GS(r) or WGS(r); one above the maximal order."""

    __slots__ = ("r", "kind", "value")

    def __init__(self, r: int, kind: Kind, value: int):
        _set(self, "r", r)
        _set(self, "kind", kind)
        _set(self, "value", value)


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
