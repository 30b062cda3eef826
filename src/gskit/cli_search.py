"""`gskit search`: exhaustive backtracking search."""

from __future__ import annotations

import sys

from .search import (STREAK, SearchConfig, SearchMode, check_parallelism, enumerate_maximal,
                     max_order, report_json, run_search, walk_limit)
from .values import Kind, UsageError

# Most colors search takes.  The search packs r bits per position into
# each mask, and keeps one mask per color class at that width, so up to
# n / 2 time per node grows with r times the depth and memory with r^2
# times the depth; past n / 2 the masks stop growing.  The default
# --max-order limit at r = 64 is 5^32 + 4, so those walks never get past
# n / 2: --budget 20,000 takes about 2.1 s and 45 MB, and --budget
# 100,000 about 62 s and 138 MB.  An exhaustive answer is within reach
# only for r of about 10 and below.
MAX_SEARCH_R = 64


def add_arguments(parser):
    parser.add_argument("--kind", choices=["strong", "weak"], default="strong")
    parser.add_argument("--r", type=int, required=True, help="number of colors")
    parser.add_argument("--n", type=int, default=None, help="order to search")
    parser.add_argument("--max-order", action="store_true",
                        help="prove the largest feasible order up to --limit")
    parser.add_argument("--enumerate", action="store_true",
                        help="all canonical witnesses (at --n, or at the maximal order)")
    parser.add_argument("--limit", type=int, default=None,
                        help="order ceiling for --max-order/--enumerate, not with "
                             "--n (default: GS(r) - 1 + 5; any ceiling above "
                             "GS(r) - 1 gives the same answer)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for --enumerate (default: 1)")
    parser.add_argument("--budget", type=int, default=None, help="node budget")
    parser.add_argument("--wall", type=float, default=None,
                        help="wall-clock budget, seconds")
    parser.add_argument("--json", action="store_true")


def run(args) -> int:
    if args.r < 1:
        raise UsageError("--r must be at least 1")
    if args.r > MAX_SEARCH_R:
        raise UsageError(f"--r {args.r} is above the cap of {MAX_SEARCH_R}")
    kind = Kind(args.kind)
    if args.max_order and (args.n is not None or args.enumerate):
        raise UsageError("--max-order excludes --n and --enumerate")
    if args.limit is not None and args.n is not None:
        raise UsageError("--limit excludes --n")
    if not args.max_order and not args.enumerate and args.n is None:
        raise UsageError("one of --n, --max-order, --enumerate is required")
    if args.n is not None and args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.n is None:  # a fixed --n needs no ceiling
        limit = walk_limit(kind, args.r, args.limit)
    # Checked in every mode, after the flags above and before any search.
    check_parallelism(args.workers)

    if args.max_order:
        m_max, confirmed = max_order(
            kind, args.r, limit, node_budget=args.budget, wall_budget=args.wall
        )
        if args.json:
            import json

            doc = {
                "kind": kind.value,
                "r": args.r,
                "limit": limit,
                "streak": STREAK,
                "m_max": m_max,
                "confirmed": confirmed,
            }
            print(json.dumps(doc))
        else:
            state = "confirmed" if confirmed else "unconfirmed"
            print(f"m_max {m_max} {state} (streak {STREAK})")
        if not confirmed:
            return 3
        return 0 if m_max else 1  # 0 proves that no order up to the limit is feasible

    mode = SearchMode.ENUMERATE_ALL if args.enumerate else SearchMode.FIRST_WITNESS
    if args.n is None:  # --enumerate at the maximal order, in one walk
        found = enumerate_maximal(kind, args.r, limit, node_budget=args.budget,
                                  wall_budget=args.wall, workers=args.workers)
        if found.report is None:
            print(f"no feasible order up to {limit}", file=sys.stderr)
            return 1 if found.confirmed else 3
        n, report = found.m_max, found.report
    else:
        n = args.n
        cfg = SearchConfig(kind, args.r, n, mode, args.budget, args.wall)
        report = run_search(cfg, workers=args.workers)
    if args.json:
        print(report_json(SearchConfig(kind, args.r, n, mode), report))
    else:
        from .cli_io import print_coloring

        for w in report.witnesses:
            print_coloring(w, kind)
        if not report.witnesses:
            print("infeasible" if report.exhausted else "inconclusive (budget exhausted)")
    # An unconfirmed m_max comes from a walk cut short, so it ends here too.
    if not report.exhausted and mode is SearchMode.ENUMERATE_ALL:
        return 3
    if report.witnesses:
        return 0
    return 1 if report.exhausted else 3
