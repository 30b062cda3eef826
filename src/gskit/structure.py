"""Structural classification and decomposition of partitions.

A canonical coloring is a two-fold or five-fold image when it matches
that construction's pattern in the `construct` table.  Maximal
Gallai-Schur partitions with more than three colors always match one of
the two, so repeatedly peeling the matching inverse walks any of them
down to a catalogue base.

Peeling here is purely structural: whenever the global pattern validates,
the inverse is well defined and is applied, maximal or not (B3A peels to
B1, for instance).  The stopping rule is "no pattern matches", never a
color-count threshold.  A PatternError from an inverse means "not this
image".
"""

from __future__ import annotations

from enum import Enum

from .core import is_canonical
from .construct import (
    MappingTag,
    _order,
    apply_mappings,
    inverse_five_fold,
    inverse_two_fold,
)
from .values import Coloring, PatternError, Record, _set


class StructureClass(Enum):
    FIVE_FOLD_IMAGE = "FiveFoldImage"
    TWO_FOLD_IMAGE = "TwoFoldImage"
    BASE = "Base"


class Decomposition(Record):
    """A base coloring plus the construction chain rebuilding the original.

    `tags` lists the mappings innermost first, so replaying them in order
    onto `base` reproduces the decomposed coloring exactly.
    """

    __slots__ = ("base", "tags")

    def __init__(self, base: Coloring, tags: tuple[MappingTag, ...]):
        _set(self, "base", base)
        _set(self, "tags", tags)

    @property
    def original_order(self) -> int:
        """Order of the decomposed coloring, that of `replay()`."""
        n = self.base.n
        for tag in self.tags:
            n = _order(tag, n)
        return n

    def replay(self) -> Coloring:
        return apply_mappings(self.base, self.tags)


def _outer_layer(c: Coloring) -> tuple[MappingTag, Coloring] | None:
    """The last construction applied to c and its preimage, or None for Base.

    The two patterns conflict at position 3 whenever both colors 1 and 2
    are present, so at most one can match; five-fold is tried first and
    wins the vacuous overlap.  The preimage of a canonical image is
    canonical, so callers check canonicity once, before the first peel.
    """
    try:
        return MappingTag.FIVE_FOLD, inverse_five_fold(c)
    except PatternError:
        pass
    try:
        return MappingTag.TWO_FOLD, inverse_two_fold(c)
    except PatternError:
        return None


def _require_canonical(c: Coloring):
    if not is_canonical(c):
        raise ValueError("expected a canonical coloring")


def classify(c: Coloring) -> StructureClass:
    """Decide which construction, if any, a canonical coloring came from.

    The check validates the full global pattern, not just a prefix.
    Degenerate orders too small to have a preimage are Base.
    """
    _require_canonical(c)
    layer = _outer_layer(c)
    if layer is None:
        return StructureClass.BASE
    if layer[0] is MappingTag.FIVE_FOLD:
        return StructureClass.FIVE_FOLD_IMAGE
    return StructureClass.TWO_FOLD_IMAGE


def peel(c: Coloring) -> tuple[MappingTag, Coloring]:
    """Strip one construction layer off a non-Base canonical coloring."""
    _require_canonical(c)
    layer = _outer_layer(c)
    if layer is None:
        raise ValueError("cannot peel a Base coloring")
    return layer


def decompose_full(c: Coloring, *, canonical: bool = False) -> Decomposition:
    """Peel constructions until a Base coloring remains.

    The tag list comes out innermost first, so `Decomposition.replay`
    rebuilds the input bit-exactly.  A non-canonical c raises ValueError;
    a caller that has just canonicalized c passes `canonical=True` to skip
    that check, a full pass over the entries.
    """
    if not canonical:
        _require_canonical(c)
    tags: list[MappingTag] = []
    current = c
    while (layer := _outer_layer(current)) is not None:
        tag, current = layer
        tags.append(tag)
    tags.reverse()
    return Decomposition(base=current, tags=tuple(tags))
