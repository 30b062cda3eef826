"""Command-line interface.

Subcommands: verify, table, construct, decompose, search, cnf.  Exit
codes are uniform across commands: 0 means ok (property verified,
witness found), 1 means a definite negative answer (violation found,
infeasible order, structural mismatch), 2 means a usage or input error,
and 3 means a budget ran out before the answer was conclusive.  A search
worker process that dies, or whose error cannot be sent back, ends the
command with one `error:` line and code 2, like an I/O error.

Positional inputs (partitions and solver models) are a file path, `-`
for stdin, or inline text; partition content may be a digit string or
the explicit `gspartition v1` form, whose declared kind is used when
--kind is not given.  All JSON output has a fixed field order.

`main` parses, runs and returns the exit code, and may be called
in-process; `run` is the process entry point of `python -m gskit.cli`
and the installed `gskit` script.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import chain, islice
from pathlib import Path

from .values import BASE_CATALOGUE, Coloring, Kind, ParseError, PatternError, gs_number

# The layers (core, construct, structure, search, satgen) are imported inside
# the commands that run them, so each command compiles and loads only the
# modules it needs: `table` and the argument parser need nothing past
# gskit.values, and `search` never loads the verifier or the constructions.


class UsageError(Exception):
    pass


def _err(message: str):
    print(message, file=sys.stderr)


_NAME_MAX = 255


def _read_input(arg: str) -> str:
    # Every positional input (partition or solver model) goes through
    # here.  "-" and any existing path but a directory are read (a file, a
    # pipe such as <(...) or /dev/stdin, a device); anything else is handed
    # to the parser as inline text so errors name the offending position.
    # An argument is looked up as a path only when it could name one:
    # asking the OS about a longer single name fails with ENAMETOOLONG.
    if arg == "-":
        return sys.stdin.read()
    pathlike = "/" in arg or arg.endswith(".txt")
    path = Path(arg)
    if (pathlike or len(os.fsencode(arg)) <= _NAME_MAX) and path.exists():
        if not path.is_dir():
            return path.read_text()
        if pathlike:
            raise UsageError(f"is a directory: {arg!r}")
    elif pathlike:
        raise UsageError(f"no such file: {arg!r}")
    return arg


def _resolve_kind(flag: str | None, declared: Kind | None) -> Kind:
    if flag is not None:
        return Kind.from_name(flag)
    if declared is not None:
        return declared
    return Kind.STRONG


def _print_json(doc: dict):
    # json is imported only by the commands that print it.
    import json

    print(json.dumps(doc))


def _print_coloring(c: Coloring, kind: Kind):
    """Compact digit string when possible, explicit file form otherwise."""
    if c.r <= 9 and max(c.colors) <= 9:
        print(c.compact())
    else:
        from .core import to_file_form

        sys.stdout.write(to_file_form(c, kind))


def cmd_verify(args) -> int:
    from .core import check_partition, iter_violations, parse_coloring_with_kind

    coloring, declared = parse_coloring_with_kind(_read_input(args.input))
    kind = _resolve_kind(args.kind, declared)
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


# Largest r for which a command computes GS(r).  GS(12,303) has 4,300
# digits, the most Python converts to text by default, and GS(12,304) has
# 4,301 for both kinds; past this the value could not be printed, and
# computing it would take seconds at r in the millions.
MAX_GS_R = 12_303


def cmd_table(args) -> int:
    if args.max_r < 1:
        raise UsageError("--max-r must be at least 1")
    if args.max_r > MAX_GS_R:
        raise UsageError(f"--max-r {args.max_r} is above the cap of {MAX_GS_R}")
    kind = Kind.from_name(args.kind)
    rows = [gs_number(r, kind) for r in range(1, args.max_r + 1)]
    if args.json:
        doc = {
            "kind": kind.value,
            "rows": [{"r": row.r, "value": row.value} for row in rows],
        }
        _print_json(doc)
    else:
        for row in rows:
            print(f"{row.r}\t{row.value}")
    return 0


# Largest order construct builds.  Every entry is held in memory and
# printed, so a bigger request is refused before any work instead of
# exhausting memory; the cap still covers the maximal partitions of
# strong r <= 18 and weak r <= 17.
MAX_CONSTRUCT_ORDER = 2_000_000

# Each step with the `construct` function it calls, the `MappingTag` name of
# its construction, and whether it inverts it.
_APPLY_STEPS = {
    "2": ("two_fold", "TWO_FOLD", False),
    "5": ("five_fold", "FIVE_FOLD", False),
    "i2": ("inverse_two_fold", "TWO_FOLD", True),
    "i5": ("inverse_five_fold", "FIVE_FOLD", True),
}


def _check_construct_order(n: int, what: str):
    if n > MAX_CONSTRUCT_ORDER:
        raise UsageError(
            f"{what} would build order {n}, above the cap of {MAX_CONSTRUCT_ORDER}"
        )


def cmd_construct(args) -> int:
    from . import construct

    if args.maximal is not None:
        kind = Kind.from_name(args.kind) if args.kind else Kind.STRONG
        if args.maximal > MAX_GS_R:
            raise UsageError(
                f"--maximal {args.maximal} would build an order of over 4300 "
                f"digits, above the cap of {MAX_CONSTRUCT_ORDER}"
            )
        order = gs_number(args.maximal, kind).value - 1
        _check_construct_order(order, f"--maximal {args.maximal}")
        current = construct.maximal_partition(args.maximal, kind)
    elif args.base is not None:
        kind, current = construct.base_by_name(args.base)
        if args.kind is not None and Kind.from_name(args.kind) is not kind:
            raise UsageError(
                f"base {args.base} belongs to the {kind.value} catalogue"
            )
    else:
        from .core import parse_coloring_with_kind

        current, declared = parse_coloring_with_kind(_read_input(args.from_input))
        kind = _resolve_kind(args.kind, declared)

    steps = args.apply or []
    order = current.n
    for step in steps:
        _, tag, inverse = _APPLY_STEPS[step]
        order = construct._order(construct.MappingTag[tag], order, inverse)
        _check_construct_order(order, f"--apply {step}")
    for step in steps:
        current = getattr(construct, _APPLY_STEPS[step][0])(current)

    if args.json:
        doc = {
            "kind": kind.value,
            "r": current.r,
            "n": current.n,
            "coloring": str(current),
        }
        _print_json(doc)
    else:
        _print_coloring(current, kind)
    return 0


def cmd_decompose(args) -> int:
    from .core import canonicalize, parse_coloring_with_kind
    from .structure import decompose_full

    coloring, _ = parse_coloring_with_kind(_read_input(args.input))
    canon = canonicalize(coloring)
    if canon != coloring:
        _err("note: input canonicalized before decomposition")
    dec = decompose_full(canon, canonical=True)
    if args.json:
        doc = {
            "base": str(dec.base),
            "tags": [t.value for t in dec.tags],
            "original_order": dec.original_order,
        }
        _print_json(doc)
    else:
        print(f"base={dec.base} tags={','.join(t.value for t in dec.tags)}")
    return 0


# Most colors search takes.  The search packs r bits per position into
# each mask, and keeps one mask per color class at that width, so up to
# n / 2 time per node grows with r times the depth and memory with r^2
# times the depth; past n / 2 the masks stop growing.  The default
# --max-order limit at r = 64 is 5^32 + 4, so those walks never get past
# n / 2: --budget 20,000 takes about 2.1 s and 45 MB, and --budget
# 100,000 about 62 s and 138 MB.  An exhaustive answer is within reach
# only for r of about 10 and below.
MAX_SEARCH_R = 64


def cmd_search(args) -> int:
    from .search import STREAK, SearchConfig, SearchMode, check_parallelism, enumerate_maximal
    from .search import max_order, report_json, run_search, walk_limit

    if args.r < 1:
        raise UsageError("--r must be at least 1")
    if args.r > MAX_SEARCH_R:
        raise UsageError(f"--r {args.r} is above the cap of {MAX_SEARCH_R}")
    kind = Kind.from_name(args.kind)
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
            doc = {
                "kind": kind.value,
                "r": args.r,
                "limit": limit,
                "streak": STREAK,
                "m_max": m_max,
                "confirmed": confirmed,
            }
            _print_json(doc)
        else:
            state = "confirmed" if confirmed else "unconfirmed"
            print(f"m_max {m_max} {state} (streak {STREAK})")
        return 0 if confirmed else 3

    mode = SearchMode.ENUMERATE_ALL if args.enumerate else SearchMode.FIRST_WITNESS
    if args.n is None:  # --enumerate at the maximal order, in one walk
        found = enumerate_maximal(kind, args.r, limit, node_budget=args.budget,
                                  wall_budget=args.wall, workers=args.workers)
        if found.report is None:
            _err(f"no feasible order up to {limit}")
            return 1 if found.confirmed else 3
        n, report = found.m_max, found.report
    else:
        n = args.n
        cfg = SearchConfig(kind, args.r, n, mode, args.budget, args.wall)
        report = run_search(cfg, workers=args.workers)
    if args.json:
        print(report_json(SearchConfig(kind, args.r, n, mode), report))
    else:
        for w in report.witnesses:
            print(str(w))
        if not report.witnesses:
            print("infeasible" if report.exhausted else "inconclusive (budget exhausted)")
    # An unconfirmed m_max comes from a walk cut short, so it ends here too.
    if not report.exhausted and mode is SearchMode.ENUMERATE_ALL:
        return 3
    if report.witnesses:
        return 0
    return 1 if report.exhausted else 3


# Most clauses cnf encode emits.  The text is streamed block by block, so
# memory follows the largest block, not the whole output: 15 MB peak RSS at
# --n 124 --r 6, but with few positions and many colors one block holds most
# clauses (134 MB at --n 3 --r 126, 89 MB at --n 4 --r 100).  The cap
# bounds the size of the output (about 40 MB near it) and the time to write
# it.  A bigger request is refused, from the closed-form count, before any
# clause is written.
MAX_CNF_CLAUSES = 2_000_000


def cmd_cnf(args) -> int:
    if args.n is None or args.r is None:
        raise UsageError("--n and --r are required")
    from .satgen import clause_count, decode, parse_model, write_dimacs

    if args.n < 1 or args.r < 1:
        raise UsageError("--n and --r must be at least 1")
    kind = Kind.from_name(args.kind)
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
    from .core import check_partition

    model = parse_model(_read_input(args.model))
    coloring = decode(model, args.n, args.r)
    _print_coloring(coloring, kind)
    verdict = check_partition(coloring, kind)
    for v in verdict.violations:
        _err(v.describe())
    return 0 if verdict.ok else 1


class _Parser(argparse.ArgumentParser):
    """A parser that refuses its own leftover arguments, so a usage error
    names the parser (root or sub-command) that could not take them.
    `add_subparsers` gives every sub-parser this class too."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gskit",
        description="Verify, construct, decompose, search, and encode "
        "sum-avoiding rainbow-free partitions of [1, n].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a partition against the constraints")
    p.add_argument("input", help="file, '-', or inline digit string")
    p.add_argument("--kind", choices=["strong", "weak"], default=None)
    p.add_argument("--all-witnesses", action="store_true",
                   help="report every violation, not just the first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="print the closed-form maximal-order table")
    p.add_argument("--kind", choices=["strong", "weak"], default="strong")
    p.add_argument("--max-r", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("construct", help="build partitions from bases and mappings")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--base", choices=sorted(BASE_CATALOGUE),
                       help="catalogue base to start from")
    start.add_argument("--maximal", type=int, metavar="R",
                       help="maximal partition for R colors (order at most "
                            f"{MAX_CONSTRUCT_ORDER})")
    start.add_argument("--from", dest="from_input", metavar="INPUT",
                       help="partition to start from (file, '-', or digits)")
    p.add_argument("--apply", action="append", choices=sorted(_APPLY_STEPS),
                   help="mapping chain, applied left to right; i2/i5 invert; "
                        f"refused if an order would exceed {MAX_CONSTRUCT_ORDER}")
    p.add_argument("--kind", choices=["strong", "weak"], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("decompose", help="peel a partition down to a base")
    p.add_argument("input", help="file, '-', or inline digit string")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("search", help="exhaustive backtracking search")
    p.add_argument("--kind", choices=["strong", "weak"], default="strong")
    p.add_argument("--r", type=int, required=True, help="number of colors")
    p.add_argument("--n", type=int, default=None, help="order to search")
    p.add_argument("--max-order", action="store_true",
                   help="prove the largest feasible order up to --limit")
    p.add_argument("--enumerate", action="store_true",
                   help="all canonical witnesses (at --n, or at the maximal order)")
    p.add_argument("--limit", type=int, default=None,
                   help="order ceiling for --max-order/--enumerate, not with "
                        "--n (default: GS(r) - 1 + 5; any ceiling above "
                        "GS(r) - 1 gives the same answer)")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")
    p.add_argument("--budget", type=int, default=None, help="node budget")
    p.add_argument("--wall", type=float, default=None, help="wall-clock budget, seconds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cnf", help="DIMACS CNF encoding and model decoding "
                       f"(encode refused above {MAX_CNF_CLAUSES} clauses)")
    # Each action has its own parser, so decode's model parses before or after
    # the flags.  The flags parse before or after the action word: an action's
    # parser sets only the flags it is given, over the defaults set here.
    # --symmetry shapes only the encoding, so decode refuses it.
    actions = p.add_subparsers(dest="action", required=True)
    encode = actions.add_parser("encode", argument_default=argparse.SUPPRESS,
                                help="write DIMACS CNF to stdout")
    decode = actions.add_parser("decode", argument_default=argparse.SUPPRESS,
                                help="decode a solver model, print and verify it")
    for q in (p, encode, decode):
        q.add_argument("--n", type=int, help="order (required)")
        q.add_argument("--r", type=int, help="number of colors (required)")
        q.add_argument("--kind", choices=["strong", "weak"])
    for q in (p, encode):
        q.add_argument("--symmetry", action="store_true",
                       help="add canonical-order symmetry-breaking clauses")
    decode.add_argument("model", nargs="?", default="-",
                        help="solver output to decode (file, '-', or inline literals)")
    p.set_defaults(func=cmd_cnf, kind="strong")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`gskit ... | head`): stop quietly.  Point
        # stdout at devnull so the interpreter's exit flush of what is still
        # buffered does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ParseError as e:
        _err(f"input error: {e}")
        return 2
    except PatternError as e:
        _err(f"structure error: {e}")
        return 1
    except (UsageError, ValueError, OSError) as e:
        _err(f"error: {e}")
        return 2
    except RuntimeError as e:
        from .pool import WorkerError

        if not isinstance(e, WorkerError):
            raise
        _err(f"error: {e}")
        return 2


def run():
    """Run one command as its own process and exit with its code.

    Both entry points come here: `python -m gskit.cli` and the installed
    `gskit` script.  Once `main` has returned, no object the process holds
    is needed again, yet the interpreter's shutdown collections would
    traverse and free every module, function and class still alive.
    `gc.freeze()` moves them all to the permanent generation, which those
    collections skip, and the OS takes the memory back at exit.  Every
    other shutdown step still runs: atexit handlers, the flush of stdout and
    stderr (the broken-pipe path in `main` relies on it) and the clearing of
    module dicts.  `os._exit` would save the same time but skip those steps.
    The freeze is here, never in `main`, because the tests and the bench
    call `main` in-process many times, and a freeze there would make
    everything their process holds permanent.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
