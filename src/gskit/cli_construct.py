"""`gskit construct`: build partitions from bases and mappings."""

from __future__ import annotations

from .cli_io import print_coloring, read_input, resolve_kind
from .construct import (MappingTag, _order, base_by_name, five_fold, inverse_five_fold,
                        inverse_two_fold, maximal_partition, two_fold)
from .values import BASE_CATALOGUE, MAX_GS_R, Kind, UsageError, gs_number

# Largest order construct builds.  Every entry is held in memory and
# printed, so a bigger request is refused before any work instead of
# exhausting memory; the cap still covers the maximal partitions of
# strong r <= 18 and weak r <= 17.
MAX_CONSTRUCT_ORDER = 2_000_000

# Each step with the function it calls, the construction it maps by, and
# whether it inverts it.
_APPLY_STEPS = {
    "2": (two_fold, MappingTag.TWO_FOLD, False),
    "5": (five_fold, MappingTag.FIVE_FOLD, False),
    "i2": (inverse_two_fold, MappingTag.TWO_FOLD, True),
    "i5": (inverse_five_fold, MappingTag.FIVE_FOLD, True),
}


def add_arguments(parser):
    start = parser.add_mutually_exclusive_group(required=True)
    start.add_argument("--base", choices=sorted(BASE_CATALOGUE),
                       help="catalogue base to start from")
    start.add_argument("--maximal", type=int, metavar="R",
                       help="maximal partition for R colors (order at most "
                            f"{MAX_CONSTRUCT_ORDER})")
    start.add_argument("--from", dest="from_input", metavar="INPUT",
                       help="partition to start from (file, '-', or digits)")
    parser.add_argument("--apply", action="append", choices=sorted(_APPLY_STEPS),
                        help="mapping chain, applied left to right; i2/i5 invert; "
                             f"refused if an order would exceed {MAX_CONSTRUCT_ORDER}")
    parser.add_argument("--kind", choices=["strong", "weak"], default=None)
    parser.add_argument("--json", action="store_true")


def _check_construct_order(n: int, what: str):
    if n > MAX_CONSTRUCT_ORDER:
        raise UsageError(
            f"{what} would build order {n}, above the cap of {MAX_CONSTRUCT_ORDER}"
        )


def run(args) -> int:
    if args.maximal is not None:
        kind = resolve_kind(args.kind, None)
        if args.maximal > MAX_GS_R:
            raise UsageError(
                f"--maximal {args.maximal} would build an order of over 4300 "
                f"digits, above the cap of {MAX_CONSTRUCT_ORDER}"
            )
        order = gs_number(args.maximal, kind).value - 1
        _check_construct_order(order, f"--maximal {args.maximal}")
        current = maximal_partition(args.maximal, kind)
    elif args.base is not None:
        kind, current = base_by_name(args.base)
        if args.kind is not None and Kind(args.kind) is not kind:
            raise UsageError(
                f"base {args.base} belongs to the {kind.value} catalogue"
            )
    else:
        from .core import parse_coloring_with_kind

        current, declared = parse_coloring_with_kind(read_input(args.from_input))
        kind = resolve_kind(args.kind, declared)

    steps = args.apply or []
    order = current.n
    for step in steps:
        _, tag, inverse = _APPLY_STEPS[step]
        order = _order(tag, order, inverse)
        _check_construct_order(order, f"--apply {step}")
    for step in steps:
        current = _APPLY_STEPS[step][0](current)

    if args.json:
        import json

        doc = {
            "kind": kind.value,
            "r": current.r,
            "n": current.n,
            "coloring": str(current),
        }
        print(json.dumps(doc))
    else:
        print_coloring(current, kind)
    return 0
