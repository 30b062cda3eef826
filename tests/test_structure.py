"""Image-pattern classification, peeling, and full decomposition."""

from __future__ import annotations

import pytest

from gskit.core import Coloring, Kind, canonicalize, check_partition, parse_coloring
from gskit.construct import (
    BASE_CATALOGUE,
    MappingTag,
    base_by_name,
    five_fold,
    maximal_partition,
    two_fold,
)
from gskit.structure import (
    Decomposition,
    StructureClass,
    classify,
    decompose_full,
    peel,
    verify_image_structure,
)

from oracle import naive_five_fold_preimage, naive_two_fold_preimage


def test_classify_examples():
    assert classify(parse_coloring("122131221")) is StructureClass.FIVE_FOLD_IMAGE
    assert classify(parse_coloring("121313121")) is StructureClass.TWO_FOLD_IMAGE
    assert classify(parse_coloring("1221")) is StructureClass.BASE
    assert classify(parse_coloring("11212221")) is StructureClass.BASE


def test_classify_degenerate_orders_are_base():
    # Orders too small to have a preimage never classify as images, even
    # when the color pattern vacuously matches.
    assert classify(parse_coloring("1")) is StructureClass.BASE
    assert classify(parse_coloring("11")) is StructureClass.BASE
    assert classify(Coloring(n=4, r=3, colors=(1, 2, 2, 1))) is StructureClass.BASE


def test_classify_requires_canonical():
    with pytest.raises(ValueError):
        classify(parse_coloring("2112"))
    with pytest.raises(ValueError):
        peel(parse_coloring("2112"))
    with pytest.raises(ValueError):
        decompose_full(parse_coloring("2112"))


@pytest.mark.parametrize("call", [
    classify,
    peel,
    decompose_full,
    lambda c: verify_image_structure(c, Kind.STRONG),
])
def test_non_canonical_input_message_names_no_caller(call):
    # One check and one message, whichever entry point was called.
    with pytest.raises(ValueError) as info:
        call(parse_coloring("2112"))
    assert str(info.value) == "expected a canonical coloring"


def test_classify_image_patterns_are_exact():
    base = parse_coloring("1221")
    image = five_fold(base)
    assert classify(image) is StructureClass.FIVE_FOLD_IMAGE
    # Truncating one entry breaks the order residue; shifting a color
    # breaks the positional pattern.
    truncated = Coloring(n=image.n - 1, r=image.r, colors=image.colors[:-1])
    assert classify(truncated) is StructureClass.BASE
    mutated = list(image.colors)
    mutated[2] = 1  # residue 3 must carry color 2
    assert classify(Coloring(n=image.n, r=image.r, colors=tuple(mutated))) \
        is StructureClass.BASE


def test_peel_inverts_one_layer():
    base = parse_coloring("11212221")
    tag, preimage = peel(two_fold(base))
    assert tag is MappingTag.TWO_FOLD
    assert preimage == base
    tag, preimage = peel(five_fold(base))
    assert tag is MappingTag.FIVE_FOLD
    assert preimage == base
    with pytest.raises(ValueError):
        peel(parse_coloring("1221"))


def test_decompose_full_examples():
    dec = decompose_full(parse_coloring("122131221"))
    assert str(dec.base) == "1"
    assert dec.tags == (MappingTag.FIVE_FOLD,)
    assert dec.original_order == 9

    dec = decompose_full(parse_coloring("121313121"))
    assert str(dec.base) == "1221"
    assert dec.tags == (MappingTag.TWO_FOLD,)

    dec = decompose_full(parse_coloring("11"))
    assert str(dec.base) == "11"
    assert dec.tags == ()

    dec = decompose_full(maximal_partition(5, Kind.STRONG))
    assert str(dec.base) == "1"
    assert dec.tags == (MappingTag.FIVE_FOLD, MappingTag.FIVE_FOLD)


def test_decompose_replay_identity():
    cases = [
        parse_coloring("1"),
        parse_coloring("1221"),
        parse_coloring("122131221"),
        two_fold(five_fold(parse_coloring("1221"))),
        five_fold(five_fold(parse_coloring("11212221"))),
    ]
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in range(1, 11):
            cases.append(maximal_partition(r, kind))
    for c in cases:
        dec = decompose_full(c)
        assert dec.replay() == c
        assert classify(dec.base) is StructureClass.BASE


def test_decomposition_tags_innermost_first():
    c = two_fold(five_fold(parse_coloring("1221")))
    dec = decompose_full(c)
    assert dec.tags == (MappingTag.FIVE_FOLD, MappingTag.TWO_FOLD)
    assert str(dec.base) == "1221"


def test_verify_image_structure_on_maximal_instances():
    assert verify_image_structure(maximal_partition(4, Kind.STRONG), Kind.STRONG)
    assert verify_image_structure(maximal_partition(5, Kind.STRONG), Kind.STRONG)
    assert verify_image_structure(maximal_partition(4, Kind.WEAK), Kind.WEAK)
    assert verify_image_structure(maximal_partition(5, Kind.WEAK), Kind.WEAK)
    # The two-fold image of a four-color maximal partition is a five-color
    # partition whose outer layer is TwoFold; still an image.
    assert verify_image_structure(
        two_fold(maximal_partition(4, Kind.STRONG)), Kind.STRONG
    )


def test_verify_image_structure_rejects_non_images():
    image = maximal_partition(4, Kind.STRONG)
    truncated = Coloring(n=image.n - 1, r=image.r, colors=image.colors[:-1])
    assert check_partition(truncated, Kind.STRONG).ok
    assert not verify_image_structure(truncated, Kind.STRONG)


def test_verify_image_structure_preconditions():
    with pytest.raises(ValueError):
        verify_image_structure(parse_coloring("122131221"), Kind.STRONG)  # r = 3
    with pytest.raises(ValueError):
        verify_image_structure(
            Coloring(n=4, r=4, colors=(1, 2, 3, 4)), Kind.STRONG
        )  # rainbow (1, 2, 3): not verifier-accepted


def test_decomposition_dataclass_shape():
    dec = Decomposition(base=parse_coloring("1"), tags=(MappingTag.FIVE_FOLD,))
    assert str(dec.replay()) == "122131221"
    assert dec.original_order == 9


def _assert_matches_image_oracle(c: Coloring):
    five = naive_five_fold_preimage(c.colors, c.r)
    two = naive_two_fold_preimage(c.colors, c.r)
    if five is not None:
        cls = StructureClass.FIVE_FOLD_IMAGE
        layer = (MappingTag.FIVE_FOLD, Coloring(n=len(five), r=c.r - 2, colors=five))
    elif two is not None:
        cls = StructureClass.TWO_FOLD_IMAGE
        layer = (MappingTag.TWO_FOLD, Coloring(n=len(two), r=c.r - 1, colors=two))
    else:
        cls = StructureClass.BASE
        layer = None
    assert classify(c) is cls, c
    if layer is None:
        with pytest.raises(ValueError, match="Base"):
            peel(c)
    else:
        assert peel(c) == layer, c


def test_classify_and_peel_match_image_oracle_on_small_colorings():
    # Every canonical coloring with n <= 10 and r <= 4, unused top colors
    # included.
    for r in range(1, 5):
        level = [()]
        for _ in range(10):
            level = [
                colors + (v,)
                for colors in level
                for v in range(1, min(max(colors, default=0) + 1, r) + 1)
            ]
            for colors in level:
                _assert_matches_image_oracle(Coloring(n=len(colors), r=r, colors=colors))


def test_classify_and_peel_match_image_oracle_on_image_mutants():
    # Every single-entry recoloring of the images of the catalogue bases,
    # relabeled to canonical form.
    for name in BASE_CATALOGUE:
        _, base = base_by_name(name)
        for image in (two_fold(base), five_fold(base)):
            _assert_matches_image_oracle(image)
            for i, old in enumerate(image.colors):
                for v in range(1, image.r + 1):
                    if v != old:
                        colors = image.colors[:i] + (v,) + image.colors[i + 1:]
                        mutant = Coloring(n=image.n, r=image.r, colors=colors)
                        _assert_matches_image_oracle(canonicalize(mutant))
