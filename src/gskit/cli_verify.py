"""`gskit verify`: check a partition against the constraints."""

from __future__ import annotations

import sys
from itertools import chain, islice

from .cli_io import read_input, resolve_kind
from .core import check_partition, iter_violations, parse_coloring_with_kind


def add_arguments(parser):
    parser.add_argument("input", help="file, '-', or inline digit string")
    parser.add_argument("--kind", choices=["strong", "weak"], default=None)
    parser.add_argument("--all-witnesses", action="store_true",
                        help="report every violation, not just the first")
    parser.add_argument("--json", action="store_true")


def run(args) -> int:
    coloring, declared = parse_coloring_with_kind(read_input(args.input))
    kind = resolve_kind(args.kind, declared)
    violations = (iter_violations(coloring, kind) if args.all_witnesses
                  else iter(check_partition(coloring, kind).violations))
    # Printed 256 at a time, so --all-witnesses never holds the whole list.
    chunks = iter(lambda: list(islice(violations, 256)), [])
    first = next(chunks, [])  # read ahead: JSON prints "ok" before the list
    if args.json:
        import json

        head = {"kind": kind.value, "r": coloring.r, "n": coloring.n, "ok": not first}
        sys.stdout.write(json.dumps(head)[:-1] + ', "violations": [')
        for i, chunk in enumerate(chain([first], chunks)):
            docs = [{"category": v.category.value, "triple": v.triple and list(v.triple),
                     "color": v.color, "message": v.describe()} for v in chunk]
            # The items of one list, as json.dumps of the whole list joins them.
            sys.stdout.write((", " if i else "") + json.dumps(docs)[1:-1])
        sys.stdout.write("]}\n")
    elif not first:
        print("ok")
    else:
        for chunk in chain([first], chunks):
            sys.stdout.write("".join(f"{v.describe()}\n" for v in chunk))
    return 1 if first else 0
