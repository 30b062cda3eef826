"""The Gallai-Schur verifier, the partition text parsers and relabeling.

A coloring (`values.Coloring`) assigns one of r colors to every integer
in [1, n].  It is a strong Gallai-Schur partition when no triple
a + b = c inside the interval is monochromatic, none is rainbow (three
pairwise distinct colors), and all r colors actually occur.  The strong criterion counts the degenerate sums
a + a = 2a, so no color class may contain a weak pair {a, 2a}; the weak
criterion only forbids monochromatic triples of three distinct integers.
A rainbow triple always has three distinct members (a = b would force two
equal colors), so the rainbow side of the check is the same in both cases.

Every constraint involves a triple whose largest member is c = a + b, and
every bad triple is a sumset fact: S_i + S_i meets S_i (monochromatic), or
S_i + S_j lands outside S_i and S_j (rainbow).  The verifier first marks,
with one bit mask per color class, every c that has a violating pair, and
then walks only those c upward, pair by pair, to name the witnesses in the
same order a scan over every c would.  A maximal partition of [1, n] so
costs about n shifts of n-bit integers instead of n^2 / 4 pair checks.  The
witnesses are one ordered stream, `iter_violations`, that a caller may stop
reading at any point; `check_partition` is its first item.
The exhaustive search relies on the same fact to reject partial colorings
as soon as a bad triple is completed.

Two textual formats are supported: a compact digit string with digit i
giving the color of i (usable while r <= 9), and an explicit header form
for arbitrary color counts.  See `parse_coloring`.  The coloring type,
its two writers (`Coloring.compact` and `to_file_form`) and the other
shared values live in `gskit.values`, so the layers and commands that
never verify or parse (search, satgen, printing a constructed coloring)
do not load this module.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum
from itertools import islice

from .values import Coloring, Kind, ParseError, Record, _set


class ViolationClass(Enum):
    MONOCHROMATIC_SUM = "MonochromaticSum"
    RAINBOW_SUM = "RainbowSum"
    EMPTY_COLOR = "EmptyColor"
    BAD_COLOR_RANGE = "BadColorRange"


class Violation(Record):
    """A witness against the partition property.

    For the two sum classes, `triple` holds (a, b, c) with a + b = c and
    a <= b.  EMPTY_COLOR carries the missing color index in `color`;
    BAD_COLOR_RANGE carries the out-of-range color value.
    """

    __slots__ = ("category", "triple", "color")

    def __init__(
        self,
        category: ViolationClass,
        triple: tuple[int, int, int] | None = None,
        color: int | None = None,
    ):
        _set(self, "category", category)
        _set(self, "triple", triple)
        _set(self, "color", color)

    def describe(self) -> str:
        if self.category is ViolationClass.MONOCHROMATIC_SUM:
            return f"monochromatic {self.triple}"
        if self.category is ViolationClass.RAINBOW_SUM:
            return f"rainbow {self.triple}"
        if self.category is ViolationClass.EMPTY_COLOR:
            return f"empty color {self.color}"
        return f"color {self.color} out of range"


class Verdict(Record):
    __slots__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]):
        _set(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations


_FILE_HEADER = re.compile(r"^gspartition v1 kind=(strong|weak) r=([0-9]+) n=([0-9]+)$")


def parse_coloring(text: str) -> Coloring:
    """Parse either textual partition form into a Coloring.

    Compact form: a single line of digits, digit i giving the color of
    integer i; r is inferred as the largest digit.  Explicit form: a
    `gspartition v1` header line declaring kind, r and n, then one line of
    n space-separated color indices and a trailing newline.  The declared r
    is kept even when it exceeds the largest entry (the verifier reports
    the unused colors as empty rather than failing the parse), but it may
    not exceed n: no partition of [1, n] has more than n colors, and such
    a header would make later steps do O(r) work.
    """
    coloring, _ = parse_coloring_with_kind(text)
    return coloring


def parse_coloring_with_kind(text: str) -> tuple[Coloring, Kind | None]:
    """Like `parse_coloring` but also return the kind declared by the
    explicit file form, or None for the compact form."""
    if text.startswith("gspartition"):
        return _parse_file_form(text)
    return _parse_compact(text), None


def _parse_compact(text: str) -> Coloring:
    line = text
    if line.endswith("\n"):
        line = line[:-1]
    if not line:
        raise ParseError("empty input", position=1)
    return Coloring.from_colors(_positive_decimals(line, _COMPACT_ERRORS))


def _parse_file_form(text: str) -> tuple[Coloring, Kind]:
    if not text.endswith("\n"):
        raise ParseError("missing trailing newline")
    lines = text[:-1].split("\n")
    if len(lines) != 2:
        raise ParseError(f"expected exactly 2 lines, got {len(lines)}")
    m = _FILE_HEADER.match(lines[0])
    if m is None:
        raise ParseError(f"bad header line {lines[0]!r}", position=1)
    kind = Kind(m.group(1))
    r = int(m.group(2))
    n = int(m.group(3))
    if r < 1 or n < 1:
        raise ParseError("r and n must be positive", position=1)
    if r > n:
        raise ParseError(
            f"declared r={r} exceeds n={n}; a partition of [1, n] has at most n colors",
            position=1,
        )
    tokens = lines[1].split(" ")
    if len(tokens) != n:
        raise ParseError(f"expected {n} entries, got {len(tokens)}", position=2)
    colors = _positive_decimals(tokens, _FILE_FORM_ERRORS)
    return Coloring(r=r, colors=colors), kind


# How each text form words a bad token, by what is wrong with it.  A
# compact token is one character, so it never has too many digits.
_COMPACT_ERRORS = {
    "junk": "invalid character {tok!r} at position {pos}",
    "zero": "color 0 at position {pos}; colors start at 1",
}
_FILE_FORM_ERRORS = {
    "junk": "entry {pos} is not a decimal number: {tok!r}",
    "zero": "entry {pos} is 0; colors start at 1",
    "long": "entry {pos} has too many digits",
}


def _positive_decimals(tokens, errors: dict[str, str]) -> tuple[int, ...]:
    """The tokens as ints, each a positive ASCII decimal.

    Each distinct token is checked and converted once.  Otherwise a
    ParseError names the first bad token, worded by `errors`.
    """
    values, bad = {}, {}
    for t in set(tokens):
        if not (t.isascii() and t.isdigit()):
            bad[t] = "junk"
        elif not t.lstrip("0"):
            bad[t] = "zero"
        else:
            try:
                values[t] = int(t)
            except ValueError:  # more digits than int() converts
                bad[t] = "long"
    if bad:
        pos = min(map(tokens.index, bad)) + 1
        tok = tokens[pos - 1]
        raise ParseError(errors[bad[tok]].format(pos=pos, tok=tok), position=pos)
    return tuple(map(values.__getitem__, tokens))


def check_partition(c: Coloring, kind: Kind) -> Verdict:
    """Verify a coloring: the verdict holds the first violation, if any,
    of `iter_violations`, which yields them all in order."""
    return Verdict(tuple(islice(iter_violations(c, kind), 1)))


def iter_violations(c: Coloring, kind: Kind):
    """Yield every violation of the Gallai-Schur property, in scan order.

    Out-of-range entries come first, ascending.  Then `_bad_sums` finds,
    with class bit masks, every triple maximum c that has a violating pair,
    and only those c are scanned, pair by pair with a ascending, to name
    the witnesses.  A triple is monochromatic when all three colors agree
    (a = b counted only under the strong kind) and rainbow when all three
    differ.  Last come the colors in [1, r] that never occur.  The
    witnesses come out in the order of the plain scan over every c; the
    cost is the masks' big-integer shifts (about n for a maximal
    partition) plus O(c) for each c that fails, and a caller that stops
    reading stops the scan.
    """
    if max(c.colors) > c.r:
        for bad in sorted({v for v in c.colors if v > c.r}):
            yield Violation(ViolationClass.BAD_COLOR_RANGE, color=bad)

    strong = kind is Kind.STRONG
    chi = (0,) + c.colors  # 1-indexed access
    for total in _bad_sums(c.colors, strong):
        cc = chi[total]
        for a in range(1, total // 2 + 1):
            b = total - a
            ca, cb = chi[a], chi[b]
            if ca == cb:
                if ca == cc and (strong or a != b):
                    yield Violation(ViolationClass.MONOCHROMATIC_SUM, triple=(a, b, total))
            elif ca != cc and cb != cc:
                yield Violation(ViolationClass.RAINBOW_SUM, triple=(a, b, total))

    present = set(c.colors)
    for color in range(1, c.r + 1):
        if color not in present:
            yield Violation(ViolationClass.EMPTY_COLOR, color=color)


# Prefixes [1, hi] that `_bad_sums` examines: the first is this long and
# each next one this many times longer, so a first-witness check of a badly
# broken coloring stops after a short prefix, as the plain scan did, while
# a clean one pays about a fifth more than one pass over [1, n].
_FIRST_PREFIX = 64
_PREFIX_GROWTH = 8


def _bad_sums(colors: tuple[int, ...], strong: bool):
    """Yield, ascending, every c in [2, n] with a violating pair a + b = c.

    Classes are keyed by color value, so out-of-range entries need no
    special case.  Each prefix is examined afresh with `_bad_mask`.
    """
    n = len(colors)
    members: dict[int, list[int]] = {}
    for i, v in enumerate(colors, start=1):
        members.setdefault(v, []).append(i)
    lo, hi = 0, _FIRST_PREFIX
    while lo < n:
        hi = min(hi, n)
        classes = [m[: bisect_right(m, hi)] for m in members.values() if m[0] <= hi]
        bits = bin(_bad_mask(classes, hi, strong))[:1:-1]
        c = bits.find("1", lo + 1)
        while c != -1:
            yield c
            c = bits.find("1", c + 1)
        lo, hi = hi, hi * _PREFIX_GROWTH


def _bad_mask(classes: list[list[int]], hi: int, strong: bool) -> int:
    """Bit mask of every c <= hi that has a violating pair a + b = c.

    `classes` are the nonempty color classes cut to [1, hi], as ascending
    member lists.  Bit x of a class mask is set when x is in the class.  A
    monochromatic sum is a bit of (S + S) & S, summed over pairs a < b
    only under the weak kind; a rainbow sum is a bit of S_i + S_j outside
    S_i and S_j.  Each sumset shifts the denser mask by every member of the
    sparser one.  When those shifts would cost more than checking all
    hi^2 / 4 pairs (many small classes), every c in [2, hi] is returned
    instead; one shift of an hi-bit integer costs about 1 + hi / 2048
    pair checks.
    """
    sizes = sorted(len(m) for m in classes)
    k = len(sizes)
    shifts = sum(s * (k - 1 - i) for i, s in enumerate(sizes)) + 2 * k * k + hi
    everything = (1 << (hi + 1)) - 4  # bits 2..hi
    if shifts * (1 + hi // 2048) > hi * hi // 4:
        return everything

    masks = []
    for m in classes:
        buf = bytearray(b"0") * (hi + 1)
        for x in m:
            buf[hi - x] = 49  # ord("1"); buf[0] is bit hi
        masks.append(int(buf, 2))

    bad = 0
    skip = 0 if strong else 1  # weak: b > a, so 2a alone is no witness
    for m, s in zip(classes, masks):
        sums = 0
        for a in m:
            if 2 * a + skip > hi:
                break
            sums |= s >> (a + skip) << (2 * a + skip)  # a + b for b >= a + skip
        bad |= sums & s

    for i in range(k):
        for j in range(i + 1, k):
            sparse, dense = (i, j) if len(classes[i]) <= len(classes[j]) else (j, i)
            sums = 0
            for a in classes[sparse]:
                sums |= masks[dense] << a
            bad |= sums & ~(masks[i] | masks[j])
    return bad & everything


def canonicalize(c: Coloring) -> Coloring:
    """Relabel colors so that first occurrences appear in increasing order.

    The relabeling is the unique bijection on [1, r] mapping the i-th color
    to appear to label i; colors that never occur keep their relative order
    after the occurring ones.  Idempotent, and the verifier's verdict is
    invariant under it.  A coloring that is already canonical is returned
    as it is.
    """
    order = list(dict.fromkeys(c.colors))  # first occurrences, in order
    if max(order) > c.r:
        raise ValueError("cannot canonicalize a coloring with out-of-range entries")
    if order == list(range(1, len(order) + 1)):
        return c
    label = {v: i for i, v in enumerate(order, start=1)}
    return Coloring(r=c.r, colors=tuple(map(label.__getitem__, c.colors)))


def is_canonical(c: Coloring) -> bool:
    return canonicalize(c) is c
