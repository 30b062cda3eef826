"""`gskit decompose`: peel a partition down to a base."""

from __future__ import annotations

import sys

from .cli_io import print_coloring, prints_compact, read_input, resolve_kind
from .core import canonicalize, parse_coloring_with_kind
from .structure import decompose_full


def add_arguments(parser):
    parser.add_argument("input", help="file, '-', or inline digit string")
    parser.add_argument("--json", action="store_true")


def run(args) -> int:
    coloring, declared = parse_coloring_with_kind(read_input(args.input))
    canon = canonicalize(coloring)
    if canon != coloring:
        print("note: input canonicalized before decomposition", file=sys.stderr)
    dec = decompose_full(canon, canonical=True)
    if args.json:
        import json

        doc = {
            "base": str(dec.base),
            "tags": [t.value for t in dec.tags],
            "original_order": dec.original_order,
        }
        print(json.dumps(doc))
    else:
        # A base no digit string holds follows its line in file form, which
        # `verify` and `decompose` read back.
        tags = ",".join(t.value for t in dec.tags)
        if prints_compact(dec.base):
            print(f"base={dec.base.compact()} tags={tags}")
        else:
            print(f"base=file tags={tags}")
            print_coloring(dec.base, resolve_kind(None, declared))
    return 0
