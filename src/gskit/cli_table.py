"""`gskit table`: print the closed-form maximal-order table."""

from __future__ import annotations

from .values import MAX_GS_R, Kind, UsageError, gs_number


def add_arguments(parser):
    parser.add_argument("--kind", choices=["strong", "weak"], default="strong")
    parser.add_argument("--max-r", type=int, default=6)
    parser.add_argument("--json", action="store_true")


def run(args) -> int:
    if args.max_r < 1:
        raise UsageError("--max-r must be at least 1")
    if args.max_r > MAX_GS_R:
        raise UsageError(f"--max-r {args.max_r} is above the cap of {MAX_GS_R}")
    kind = Kind(args.kind)
    rows = [gs_number(r, kind) for r in range(1, args.max_r + 1)]
    if args.json:
        import json

        doc = {
            "kind": kind.value,
            "rows": [{"r": row.r, "value": row.value} for row in rows],
        }
        print(json.dumps(doc))
    else:
        for row in rows:
            print(f"{row.r}\t{row.value}")
    return 0
