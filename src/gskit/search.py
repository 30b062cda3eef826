"""Exhaustive backtracking search for Gallai-Schur partitions.

Positions are colored in increasing order.  Every sum triple a + b = c has
maximum element c, so the only constraints completed by coloring position
c are those whose pairs sum to c; rejecting at assignment time is
therefore equivalent to fully verifying the prefix.  Symmetry is broken by
allowing at most one previously unused color at each step (the color of c
may exceed the colors used so far by at most one), which makes every
accepted leaf canonical and the enumeration duplicate-free up to
relabeling.  A leaf is accepted when all r colors occur.

The positions a color may not take are kept for all r colors in one
integer, r bits (lanes) per position: color k is ruled out at c by the
pair sums within its class (a + a included only in the strong case) and
by E_k, the sums a + b with a and b in two distinct classes other than k.
The allowed colors at a position are then its r low bits, and placing a
color updates every color's lane with a few whole-integer operations
(broadword packing, Knuth, TAOCP 4A, 7.1.3) instead of one per color.
The class masks hold only the positions up to n / 2: the smaller summand
of a sum up to n is at most n / 2, so no later row is ever read.  Past
n / 2 the masks no longer change, so the update a color makes is the
same at every position there, and a placement is one OR and one shift.

The search is one loop over an explicit stack that holds only branch
points.  No node allows more than two colors (the README proves it), so
a branch point tries the lower one and defers the other.  Most nodes
allow exactly one color; they get no stack entry, and a dead end pops the
last branch point and places its deferred color in one step.  Every
placement a dead end undoes lies at or above that branch point, so
cutting the masks down to the rows below it undoes them all at once.

The sequential depth-first order is the reference semantics.  One
driver, `_drive`, walks the tree in one piece or splits it into subtree
tasks below the prefix depth `default_split_depth` picks from the config
alone, and merges the tasks' `_Walk` records with the shallow walk above
them by one rule per field: the deepest order is the max, the witnesses
of the walks that reach it concatenate in prefix order, nodes add, and
the run is exhausted when every walk is.  The merge equals the
sequential walk, so worker count never changes the output.  Split tasks
run on the calling process and children it starts with `os.fork` (see
`gskit.pool`).  First-witness runs, runs with a budget, runs on one
worker or one usable CPU, and runs where `os.fork` is missing are never
split.
"""

from __future__ import annotations

import os
import sys
import time
from collections import namedtuple
from enum import Enum

from .values import Coloring, Kind, Record, _set, gs_number


class SearchMode(Enum):
    FIRST_WITNESS = "first-witness"
    ENUMERATE_ALL = "enumerate-all"


class SearchConfig(Record):
    """Parameters of one search: what to look for and how hard to try.

    Budgets are optional; exceeding one marks the report unexhausted
    instead of raising.
    """

    __slots__ = ("kind", "r", "n", "mode", "node_budget", "wall_budget")

    def __init__(
        self,
        kind: Kind,
        r: int,
        n: int,
        mode: SearchMode = SearchMode.FIRST_WITNESS,
        node_budget: int | None = None,
        wall_budget: float | None = None,
    ):
        if r < 1 or n < 1:
            raise ValueError("r and n must be positive")
        if node_budget is not None and node_budget < 1:
            raise ValueError("node budget must be positive")
        if wall_budget is not None and not wall_budget > 0:
            raise ValueError("wall budget must be positive")
        _set(self, "kind", kind)
        _set(self, "r", r)
        _set(self, "n", n)
        _set(self, "mode", mode)
        _set(self, "node_budget", node_budget)
        _set(self, "wall_budget", wall_budget)


class SearchReport(Record):
    """Witnesses found, nodes entered, and whether the tree was finished.

    `exhausted` is True only when the whole (sub)tree was searched within
    budget; a first-witness run that stops at its witness reports False.
    """

    __slots__ = ("witnesses", "nodes_explored", "exhausted")

    def __init__(self, witnesses: tuple[Coloring, ...], nodes_explored: int, exhausted: bool):
        _set(self, "witnesses", witnesses)
        _set(self, "nodes_explored", nodes_explored)
        _set(self, "exhausted", exhausted)


class SubtreeTask(Record):
    """One independently searchable subtree: a config plus a valid prefix."""

    __slots__ = ("config", "prefix")

    def __init__(self, config: SearchConfig, prefix: tuple[int, ...]):
        _set(self, "config", config)
        _set(self, "prefix", prefix)


class MaximalReport(Record):
    """What `enumerate_maximal` found: the maximal order, whether it is
    proved, and the enumeration at that order (None when no order up to
    the walk's ceiling was shown feasible).
    """

    __slots__ = ("m_max", "confirmed", "report")

    def __init__(self, m_max: int, confirmed: bool, report: SearchReport | None):
        _set(self, "m_max", m_max)
        _set(self, "confirmed", confirmed)
        _set(self, "report", report)


# What one walk found, all strictly below its prefix: `witnesses` lists
# the full-color paths of order `deepest` (first-witness: the one at n),
# `nodes` counts assignments, `frontier` holds the unexpanded paths at the
# stop depth, and `deepest` is the largest order shown feasible (or 0).
_Walk = namedtuple("_Walk", "witnesses nodes exhausted frontier deepest")


_WALL_CHECK_INTERVAL = 64


def _explore(cfg: SearchConfig, prefix: tuple[int, ...], stop_depth: int | None) -> _Walk:
    """Depth-first engine behind every search entry point.

    Replays `prefix` (validating it), then explores below it with a loop
    over an explicit stack of branch points, so orders in the thousands
    need no recursion.  With `stop_depth` set, descent stops there and the
    valid assignments of that length make up the frontier, unexpanded.
    """
    n, r = cfg.n, cfg.r
    strong = cfg.kind is Kind.STRONG
    first_witness = cfg.mode is SearchMode.FIRST_WITNESS
    node_budget = cfg.node_budget
    wall_budget = cfg.wall_budget
    deadline = None if wall_budget is None else time.monotonic() + wall_budget
    # Positions past `stop` are frontier entries, and past n leaves.
    stop = n + 1 if stop_depth is None else stop_depth
    last = min(stop, n)

    # Every mask packs r lanes per row: bit j * r + k - 1 is color k at
    # row j.  At the node that colors position pos, `forbid` has that bit
    # set when some a + b = pos + j with a, b already placed rules color k
    # out at pos + j: a and b in class k (monochromatic), or in two
    # distinct classes other than k (rainbow).  Row 0 is pos itself, so the
    # low r bits, inverted, are the allowed colors, and a child shifts the
    # mask down one row.  Row a of `others` is own[c - 1], every lane but
    # c's, for each placed a of color c with 2 * a <= n; classes[k - 1]
    # holds every lane of those rows in class k.  Row a is read only as the
    # smaller summand of a sum a + b <= n with b >= a, so rows past n / 2
    # would never be read and are not added.  Every mask stays
    # non-negative: `~` on a long integer costs several times an `&`, so
    # lane k is cleared with not_lane[k - 1], every lane but k's over the
    # first `rows` rows.
    lanes = (1 << r) - 1
    own = [lanes ^ 1 << k for k in range(r)]
    others = 0
    classes = [0] * r
    rows = 0
    not_lane: list[int] = []
    # Past n / 2 the masks stop changing, so the update x a placement makes
    # (below) depends on its color alone: upper[k - 1] caches it for color
    # k once computed, and None marks it stale.
    upper: list[int | None] = [None] * r

    witnesses: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = []
    nodes = 0
    # Positions 1 .. forced replay the prefix: checked, but neither counted
    # nor recorded in `deepest`, which starts at `forced` for that reason.
    forced = len(prefix)
    deepest = forced
    exhausted = True

    # `path` holds the colors placed at 1 .. pos - 1, and (forbid, maxused)
    # the state of the node at pos.  Most nodes allow one color only, so
    # the stack keeps just the branch points: nodes that allow two colors,
    # as (pos, the bit of the deferred higher color, forbid, maxused).  A
    # dead end pops the last one, restores its forbid mask and places the
    # deferred color.  At or below n / 2 it also truncates `others` and
    # every class it undoes a placement of to the rows below pos, and drops
    # `upper`; above n / 2 the masks hold no row it undoes.
    path: list[int] = []
    forbid = 0
    maxused = 0
    pos = 1
    stack: list[tuple[int, int, int, int]] = []
    while True:
        if pos <= forced:
            color = prefix[pos - 1]
            if pos > n or not 1 <= color <= min(maxused + 1, r) or forbid >> color - 1 & 1:
                raise ValueError(f"prefix is not a reachable search state at position {pos}")
        else:
            if pos > last:
                if pos > stop:
                    frontier.append(tuple(path))
                allowed = 0
            elif maxused == r:
                allowed = (forbid & lanes) ^ lanes
            elif r - maxused > n - pos + 1:
                allowed = 0
            else:
                candidates = (2 << maxused) - 1
                allowed = (forbid & candidates) ^ candidates
            if allowed:
                low = allowed & -allowed
                if allowed != low:
                    stack.append((pos, allowed ^ low, forbid, maxused))
            elif stack:
                pos, low, forbid, maxused = stack.pop()
                if 2 * pos <= n:
                    keep = (1 << pos * r) - 1
                    others &= keep
                    for c in set(path[pos - 1:]):
                        classes[c - 1] &= keep
                    upper = [None] * r
                del path[pos - 1:]
            else:
                break
            if node_budget is not None and nodes >= node_budget:
                exhausted = False
                break
            nodes += 1
            if deadline is not None and nodes % _WALL_CHECK_INTERVAL == 0:
                if time.monotonic() > deadline:
                    exhausted = False
                    break
            color = low.bit_length()

        k = color - 1
        if rows <= pos <= n - rows:
            # x needs rows 0 .. min(pos, n - pos) only, so not_lane grows
            # by doubling, from 64 rows, as the walk deepens instead of
            # covering n rows up front.
            rows = min(max(2 * rows, 64), n + 1)
            full = (1 << rows * r) - 1
            ones = full // lanes
            not_lane = [full ^ ones << j for j in range(r)]
        # Row a of x is pos + a: color k alone when a is in class k, every
        # color but k and a's own otherwise.  Under the strong kind, pos
        # joins class k first, so row pos (2 * pos = pos + pos) rules out
        # color k too.  Past n / 2, pos joins no mask, and x is upper[k].
        if 2 * pos > n:
            x = upper[k]
            if x is None:
                x = upper[k] = (others & not_lane[k]) ^ classes[k]
        elif strong:
            shift = pos * r
            others |= own[k] << shift
            classes[k] |= lanes << shift
            x = (others & not_lane[k]) ^ classes[k]
        else:
            shift = pos * r
            x = (others & not_lane[k]) ^ classes[k]
            others |= own[k] << shift
            classes[k] |= lanes << shift
        # x has no row past n / 2, as the masks stop there.  Its rows past
        # n - pos (sums past n) are kept: they reach row 0 only past n, and
        # masking them off costs more than carrying them.
        forbid = (forbid | x) >> r
        path.append(color)
        if color > maxused:
            maxused = color
        if maxused == r and pos >= deepest and pos > forced:
            if pos > deepest:
                deepest, witnesses = pos, []
            if not first_witness:
                witnesses.append(tuple(path))
            elif pos == n < stop:
                witnesses, exhausted = [tuple(path)], False
                break
        pos += 1

    return _Walk(witnesses, nodes, exhausted, frontier, deepest if deepest > forced else 0)


def _report(cfg: SearchConfig, walk: _Walk) -> SearchReport:
    """The public form of a walk of `cfg`'s tree, witnesses of length n only."""
    found = walk.witnesses if walk.deepest == cfg.n else ()
    witnesses = tuple(Coloring(r=cfg.r, colors=w) for w in found)
    return SearchReport(witnesses=witnesses, nodes_explored=walk.nodes, exhausted=walk.exhausted)


def exists_partition(cfg: SearchConfig) -> SearchReport:
    """Search [1, n] for r-color partitions of the configured kind.

    First-witness mode stops at the first accepted leaf (the
    lexicographically least canonical witness); enumerate-all collects
    every canonical witness in lexicographic order.  A fired budget yields
    an unexhausted report, never an error.
    """
    return _report(cfg, _drive(cfg))


def parallel_split(cfg: SearchConfig, depth: int) -> list[SubtreeTask]:
    """Split the search tree into the subtrees below every valid prefix of
    the given length.

    The prefixes are exactly the depth-`depth` states the sequential
    search enters (symmetry-admissible and violation-free), in search
    order; depth 0 yields the whole tree as a single task.  Budgets do not
    apply to the split itself.
    """
    if depth < 0 or depth > cfg.n:
        raise ValueError(f"split depth must be in [0, {cfg.n}], got {depth}")
    unbudgeted = SearchConfig(kind=cfg.kind, r=cfg.r, n=cfg.n, mode=cfg.mode)
    return [SubtreeTask(config=cfg, prefix=p) for p in _explore(unbudgeted, (), depth).frontier]


def _walk_task(task: SubtreeTask) -> tuple:
    """Walk one subtree: the function a split run forks.  It returns the
    `_Walk` as a plain tuple, which `marshal` can send back."""
    return tuple(_explore(task.config, task.prefix, None))


def run_task(task: SubtreeTask) -> SearchReport:
    """Search one subtree; nodes are counted strictly below the prefix."""
    return _report(task.config, _explore(task.config, task.prefix, None))


def default_split_depth(cfg: SearchConfig) -> int:
    """Prefix depth at which a split run cuts the tree into tasks, from the
    config alone so that worker count never influences the report."""
    if cfg.n < 12:
        return 0
    return min(8, cfg.n // 3)


def check_parallelism(workers: int) -> None:
    """Reject a worker count below 1."""
    if workers < 1:
        raise ValueError("worker count must be positive")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has
    one (so `taskset` or a cpuset counts), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drive(cfg: SearchConfig, workers: int = 1) -> _Walk:
    """Walk `cfg`'s whole tree, in one piece or split as the module docstring says."""
    procs = min(workers, _usable_cpus())
    # A forked child gets a copy of every lock, but only the calling
    # thread; with other threads running, one might hold a lock forever.
    # The split depth is read last, only for a walk that could split.
    threading = sys.modules.get("threading")
    if (cfg.mode is SearchMode.FIRST_WITNESS or cfg.node_budget is not None
            or cfg.wall_budget is not None or procs == 1
            or not hasattr(os, "fork") or threading and threading.active_count() > 1
            or (depth := default_split_depth(cfg)) == 0):
        return _explore(cfg, (), None)
    shallow = _explore(cfg, (), depth)
    tasks = [SubtreeTask(config=cfg, prefix=p) for p in shallow.frontier]
    procs = min(procs, len(tasks))
    if procs > 1:
        from .pool import run_forked

        walks = run_forked(_walk_task, tasks, procs)
    else:
        walks = [_walk_task(t) for t in tasks]
    walks = [shallow, *map(_Walk._make, walks)]
    deepest = max(walk.deepest for walk in walks)
    return _Walk(
        witnesses=[w for walk in walks if walk.deepest == deepest for w in walk.witnesses],
        nodes=sum(walk.nodes for walk in walks),
        exhausted=all(walk.exhausted for walk in walks),
        frontier=[],
        deepest=deepest,
    )


def run_search(cfg: SearchConfig, workers: int = 1) -> SearchReport:
    """Run a search, optionally on several worker processes.

    The report is byte-for-byte identical for every worker count, as the
    split, at `default_split_depth(cfg)`, depends only on the config.  The
    module docstring says which runs split; neither a budgeted run (so its
    budget caps the whole run) nor one with other threads running ever
    does.  A split run uses min(workers, tasks, CPUs) processes, counting
    the calling one, so it forks one child fewer; the CPUs are those this
    process may run on.  A worker count below 1 raises ValueError before
    any search.
    """
    check_parallelism(workers)
    return _report(cfg, _drive(cfg, workers))


# Orders past the closed-form maximum GS(r) - 1 in the default ceiling of
# the max-order walk.  The walk proves the maximum at any ceiling above
# GS(r) - 1, so the margin changes no answer; it stays 5 because the
# printed "(streak 5)" and the JSON "streak" key report it.
STREAK = 5


def walk_limit(kind: Kind, r: int, limit: int | None = None) -> int:
    """Order ceiling of the max-order walk: `limit`, or by default
    GS(r) - 1 + STREAK, STREAK orders past the closed-form maximum."""
    if limit is None:
        limit = gs_number(r, kind).value - 1 + STREAK
    if limit < 1:
        raise ValueError("limit must be positive")
    return limit


def max_order(
    kind: Kind,
    r: int,
    limit: int | None = None,
    node_budget: int | None = None,
    wall_budget: float | None = None,
) -> tuple[int, bool]:
    """Largest feasible order up to the ceiling `walk_limit(kind, r, limit)`,
    with a confirmation flag.

    Every constraint on a prefix [1, m] involves only triples inside it,
    so the valid canonical prefixes of length m that use all r colors are
    exactly the r-color partitions of [1, m].  One walk of the canonical
    tree, capped at that ceiling, therefore answers every order at once:
    the maximum is the deepest depth reached with all r colors in use.  It
    is confirmed (proved) when the walk finishes, or when it reaches the
    ceiling itself.  The budgets cap the whole walk; one that fires leaves
    the flag False and the maximum a lower bound.  Returns (0, flag) when
    no order is feasible.
    """
    limit = walk_limit(kind, r, limit)
    cfg = SearchConfig(kind, r, limit, SearchMode.FIRST_WITNESS, node_budget, wall_budget)
    walk = _drive(cfg)
    return walk.deepest, walk.exhausted or walk.deepest == limit


def enumerate_maximal(
    kind: Kind,
    r: int,
    limit: int | None = None,
    node_budget: int | None = None,
    wall_budget: float | None = None,
    workers: int = 1,
) -> MaximalReport:
    """Every maximal r-color partition of the given kind, up to relabeling.

    One enumerate-all walk of the canonical tree to the ceiling
    `walk_limit(kind, r, limit)` answers it all: m_max is its deepest
    order, confirmed as in `max_order`, and the report holds the
    full-color paths of that length, in lexicographic order, with the
    walk's node count.  At a ceiling of GS(r) - 1 or more that walk enters
    exactly the nodes of the walk at n = m_max (see the README).  The budgets cap the whole
    walk and never raise: a budgeted report holds the paths at the deepest
    order reached within it.  `workers` is checked as in `run_search`,
    before the walk, and splits it in the same way.
    """
    check_parallelism(workers)
    limit = walk_limit(kind, r, limit)
    cfg = SearchConfig(kind, r, limit, SearchMode.ENUMERATE_ALL, node_budget, wall_budget)
    walk = _drive(cfg, workers)
    report = _report(SearchConfig(kind, r, walk.deepest), walk) if walk.deepest else None
    return MaximalReport(walk.deepest, walk.exhausted or walk.deepest == limit, report)


def report_json(cfg: SearchConfig, report: SearchReport) -> str:
    """Stable JSON form of a search report (field order fixed)."""
    import json

    doc = {
        "kind": cfg.kind.value,
        "r": cfg.r,
        "n": cfg.n,
        "witnesses": [str(w) for w in report.witnesses],
        "nodes": report.nodes_explored,
        "exhausted": report.exhausted,
    }
    return json.dumps(doc)
