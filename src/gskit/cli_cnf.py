"""`gskit cnf`: DIMACS CNF encoding and model decoding."""

from __future__ import annotations

import sys

from .satgen import clause_count, decode, parse_model, write_dimacs
from .values import MAX_CNF_CLAUSES, SUPPRESS, Kind, UsageError


def add_arguments(parser):
    # Each action has its own parser, so decode's model parses before or after
    # the flags.  The flags parse before or after the action word: an action's
    # parser sets only the flags it is given, over the defaults set here.
    # --symmetry shapes only the encoding, so decode refuses it.
    actions = parser.add_subparsers(dest="action", required=True)
    encode = actions.add_parser("encode", argument_default=SUPPRESS,
                                help="write DIMACS CNF to stdout")
    decode = actions.add_parser("decode", argument_default=SUPPRESS,
                                help="decode a solver model, print and verify it")
    for q in (parser, encode, decode):
        q.add_argument("--n", type=int, help="order (required)")
        q.add_argument("--r", type=int, help="number of colors (required)")
        q.add_argument("--kind", choices=["strong", "weak"])
    for q in (parser, encode):
        q.add_argument("--symmetry", action="store_true",
                       help="add canonical-order symmetry-breaking clauses")
    decode.add_argument("model", nargs="?", default="-",
                        help="solver output to decode (file, '-', or inline literals)")
    parser.set_defaults(kind="strong")


def run(args) -> int:
    if args.n is None or args.r is None:
        raise UsageError("--n and --r are required")
    if args.n < 1 or args.r < 1:
        raise UsageError("--n and --r must be at least 1")
    kind = Kind(args.kind)
    if args.action == "encode":
        count = clause_count(args.n, args.r, kind, args.symmetry)
        if count > MAX_CNF_CLAUSES:
            raise UsageError(
                f"--n {args.n} --r {args.r} would emit {count} clauses, "
                f"above the cap of {MAX_CNF_CLAUSES}"
            )
        write_dimacs(sys.stdout, args.n, args.r, kind, symmetry=args.symmetry)
        return 0
    if args.symmetry:  # `cnf --symmetry decode`: decode's own parser has no --symmetry
        raise UsageError("--symmetry applies to encode only")
    from .cli_io import print_coloring, read_input
    from .core import check_partition

    model = parse_model(read_input(args.model))
    coloring = decode(model, args.n, args.r)
    print_coloring(coloring, kind)
    verdict = check_partition(coloring, kind)
    for v in verdict.violations:
        print(v.describe(), file=sys.stderr)
    return 0 if verdict.ok else 1
