"""Exhaustive backtracking search for Gallai-Schur partitions.

Positions are colored in increasing order.  Every sum triple a + b = c has
maximum element c, so the only constraints completed by coloring position
c are those whose pairs sum to c; rejecting at assignment time is
therefore equivalent to fully verifying the prefix.  Symmetry is broken by
allowing at most one previously unused color at each step (the color of c
may exceed the colors used so far by at most one), which makes every
accepted leaf canonical and the enumeration duplicate-free up to
relabeling.  A leaf is accepted when all r colors occur.

Color classes are kept as bitmasks over [1, n].  Each color k carries a
mask of its members and a mask of the positions it may not take: the
pair sums within its class (a + a included only in the strong case) and
E_k, the sums a + b with a and b in two distinct classes other than k.
Testing a candidate color at position c is then one bit probe, and
placing a color updates each color's mask once.

The sequential depth-first order is the reference semantics.  A run can be
split into independent subtree tasks below a fixed prefix depth; merging
task results in prefix order reproduces the sequential report exactly, so
worker count and scheduling never change the output.  Node and wall-clock
budgets are enforced per execution unit (the whole run when sequential,
each subtree task when split); first-witness runs are always sequential.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum

from .core import Coloring, Kind
from .construct import gs_number


class SearchMode(Enum):
    FIRST_WITNESS = "first-witness"
    ENUMERATE_ALL = "enumerate-all"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search: what to look for and how hard to try.

    Budgets are optional; exceeding one marks the report unexhausted
    instead of raising.
    """

    kind: Kind
    r: int
    n: int
    mode: SearchMode = SearchMode.FIRST_WITNESS
    node_budget: int | None = None
    wall_budget: float | None = None

    def __post_init__(self):
        if self.r < 1 or self.n < 1:
            raise ValueError("r and n must be positive")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node budget must be positive")
        if self.wall_budget is not None and self.wall_budget <= 0:
            raise ValueError("wall budget must be positive")


@dataclass(frozen=True)
class SearchReport:
    """Witnesses found, nodes entered, and whether the tree was finished.

    `exhausted` is True only when the whole (sub)tree was searched within
    budget; a first-witness run that stops at its witness reports False.
    """

    witnesses: tuple[Coloring, ...]
    nodes_explored: int
    exhausted: bool


@dataclass(frozen=True)
class SubtreeTask:
    """One independently searchable subtree: a config plus a valid prefix."""

    config: SearchConfig
    prefix: tuple[int, ...]


class PartialResultError(RuntimeError):
    """Enumeration could not be completed within budget; carries what was found."""

    def __init__(self, message: str, witnesses: tuple[Coloring, ...]):
        super().__init__(message)
        self.witnesses = witnesses


_WALL_CHECK_INTERVAL = 64


def _explore(cfg: SearchConfig, prefix: tuple[int, ...], stop_depth: int | None):
    """Depth-first engine behind every search entry point.

    Replays `prefix` (validating it), then explores below it with a loop
    over an explicit stack, one entry per placed position, so orders in
    the thousands need no recursion.  With `stop_depth` set, descent stops
    there and the valid assignments of that length are collected as the
    frontier instead of being expanded.  Returns (witnesses, nodes,
    exhausted, frontier, deepest): nodes counts accepted assignments
    strictly below the prefix, and deepest is the largest position
    assigned while all r colors are in use, i.e. the largest order up to
    n that the explored part of the tree shows feasible.
    """
    n, r = cfg.n, cfg.r
    strong = cfg.kind is Kind.STRONG
    first_witness = cfg.mode is SearchMode.FIRST_WITNESS
    node_budget = cfg.node_budget
    wall_budget = cfg.wall_budget
    deadline = None if wall_budget is None else time.monotonic() + wall_budget

    # members[k] is color k's class.  A forbid list has bit c of entry k
    # set when some a + b = c with a, b already placed rules color k out
    # at c: a and b in class k (monochromatic), or in two distinct classes
    # other than k (rainbow; this part is E_k).  Each node on the path owns
    # its forbid list, so backtracking only clears one member bit.  Index 0
    # is unused.
    members = [0] * (r + 1)

    def place(pos: int, color: int, forbid: list[int]) -> list[int]:
        cls = members[color]
        # pos plus a member of class j != color is a rainbow sum for every
        # third color k.
        others = ((1 << pos) - 2) ^ cls
        nxt = [f | (others & ~m) << pos for f, m in zip(forbid, members)]
        nxt[color] = forbid[color] | cls << pos | (1 << 2 * pos if strong else 0)
        members[color] = cls | 1 << pos
        return nxt

    forbid = [0] * (r + 1)
    maxused = 0
    for pos, color in enumerate(prefix, start=1):
        if not 1 <= color <= min(maxused + 1, r) or forbid[color] >> pos & 1:
            raise ValueError(f"prefix is not a reachable search state at position {pos}")
        forbid = place(pos, color, forbid)
        maxused = max(maxused, color)

    witnesses: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = []
    nodes = 0
    deepest = 0
    aborted = False
    stopped_at_witness = False

    # The explicit stack: the colors placed at 1 .. pos - 1, and per node
    # on that path its forbid list and colors in use.  `color` is the last
    # color tried at the current node, 0 on entering it.
    path = list(prefix)
    forbid_stack = [forbid]
    maxused_stack = [maxused]
    color = 0
    while True:
        pos = len(path) + 1
        maxused = maxused_stack[-1]
        top = maxused + 1 if maxused < r else r
        if color == 0:
            if stop_depth is not None and pos > stop_depth:
                frontier.append(tuple(path))
                top = 0
            elif pos > n:
                if maxused == r:
                    witnesses.append(tuple(path))
                    if first_witness:
                        stopped_at_witness = True
                        break
                top = 0
            elif r - maxused > n - pos + 1:
                top = 0
        forbid = forbid_stack[-1]
        color += 1
        while color <= top and forbid[color] >> pos & 1:
            color += 1
        if color <= top:
            if node_budget is not None and nodes >= node_budget:
                aborted = True
                break
            nodes += 1
            if deadline is not None and nodes % _WALL_CHECK_INTERVAL == 0:
                if time.monotonic() > deadline:
                    aborted = True
                    break
            forbid_stack.append(place(pos, color, forbid))
            path.append(color)
            if color > maxused:
                maxused = color
            if maxused == r and pos > deepest:
                deepest = pos
            maxused_stack.append(maxused)
            color = 0
        elif len(path) > len(prefix):
            color = path.pop()
            forbid_stack.pop()
            maxused_stack.pop()
            members[color] ^= 1 << (pos - 1)
        else:
            break

    exhausted = not aborted and not stopped_at_witness
    return witnesses, nodes, exhausted, frontier, deepest


def _as_colorings(cfg: SearchConfig, raw: list[tuple[int, ...]]) -> tuple[Coloring, ...]:
    return tuple(Coloring(n=cfg.n, r=cfg.r, colors=w) for w in raw)


def exists_partition(cfg: SearchConfig) -> SearchReport:
    """Search [1, n] for r-color partitions of the configured kind.

    First-witness mode stops at the first accepted leaf (the
    lexicographically least canonical witness); enumerate-all collects
    every canonical witness in lexicographic order.  A fired budget yields
    an unexhausted report, never an error.
    """
    return run_task(SubtreeTask(config=cfg, prefix=()))


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
    _, _, _, frontier, _ = _explore(_unbudgeted(cfg), (), depth)
    return [SubtreeTask(config=cfg, prefix=p) for p in frontier]


def run_task(task: SubtreeTask) -> SearchReport:
    """Search one subtree; nodes are counted strictly below the prefix."""
    raw, nodes, exhausted, _, _ = _explore(task.config, task.prefix, None)
    return SearchReport(
        witnesses=_as_colorings(task.config, raw),
        nodes_explored=nodes,
        exhausted=exhausted,
    )


def _unbudgeted(cfg: SearchConfig) -> SearchConfig:
    if cfg.node_budget is None and cfg.wall_budget is None:
        return cfg
    return SearchConfig(kind=cfg.kind, r=cfg.r, n=cfg.n, mode=cfg.mode)


def default_split_depth(cfg: SearchConfig) -> int:
    """Split depth used when the caller does not pick one; a pure function
    of the config so that worker count never influences the report."""
    if cfg.n < 12:
        return 0
    return min(8, cfg.n // 3)


def run_search(
    cfg: SearchConfig, workers: int = 1, split_depth: int | None = None
) -> SearchReport:
    """Run a search, optionally on several worker processes.

    The report is byte-for-byte identical for every worker count: the task
    decomposition depends only on the config and split depth, tasks are
    merged in prefix order, and first-witness runs always take the
    sequential path.  Node totals equal the sequential count (the split
    enumeration contributes the shallow nodes, each task the nodes below
    its prefix).

    Budgeted runs also go sequential, so a node budget caps the total
    explored rather than each subtree separately.
    """
    if workers < 1:
        raise ValueError("worker count must be positive")
    if cfg.mode is SearchMode.FIRST_WITNESS:
        return exists_partition(cfg)
    if cfg.node_budget is not None or cfg.wall_budget is not None:
        return exists_partition(cfg)
    depth = default_split_depth(cfg) if split_depth is None else split_depth
    depth = min(depth, cfg.n)
    if depth == 0:
        return exists_partition(cfg)

    _, shallow_nodes, _, frontier, _ = _explore(_unbudgeted(cfg), (), depth)
    tasks = [SubtreeTask(config=cfg, prefix=p) for p in frontier]
    if workers == 1 or len(tasks) <= 1:
        results = [run_task(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(run_task, tasks))

    witnesses: list[Coloring] = []
    nodes = shallow_nodes
    exhausted = True
    for rep in results:
        witnesses.extend(rep.witnesses)
        nodes += rep.nodes_explored
        exhausted = exhausted and rep.exhausted
    return SearchReport(
        witnesses=tuple(witnesses), nodes_explored=nodes, exhausted=exhausted
    )


def max_order(
    kind: Kind,
    r: int,
    limit: int,
    streak: int = 5,
    node_budget: int | None = None,
    wall_budget: float | None = None,
) -> tuple[int, bool]:
    """Largest feasible order up to `limit`, with a confirmation flag.

    Every constraint on a prefix [1, m] involves only triples inside it,
    so the valid canonical prefixes of length m that use all r colors are
    exactly the r-color partitions of [1, m].  One walk of the canonical
    tree, capped at depth `limit`, therefore answers every order at once:
    the maximum is the deepest depth reached with all r colors in use.  It
    is confirmed (proved) when the walk finishes, or when it reaches
    `limit` itself.  The budgets cap the whole walk; one that fires leaves
    the flag False and the maximum a lower bound.  `streak` is only
    validated here: callers derive their default `limit` from it.
    Returns (0, flag) when no order is feasible.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    if streak < 1:
        raise ValueError("streak must be positive")
    cfg = SearchConfig(
        kind=kind,
        r=r,
        n=limit,
        mode=SearchMode.FIRST_WITNESS,
        node_budget=node_budget,
        wall_budget=wall_budget,
    )
    raw, _, exhausted, _, deepest = _explore(cfg, (), None)
    return deepest, exhausted or bool(raw)


def enumerate_maximal(
    kind: Kind,
    r: int,
    limit: int | None = None,
    streak: int = 5,
    node_budget: int | None = None,
    wall_budget: float | None = None,
    workers: int = 1,
    split_depth: int | None = None,
) -> list[Coloring]:
    """Every maximal r-color partition of the given kind, up to relabeling.

    Finds the maximal order with `max_order` (by default up to the
    closed-form value plus the streak), then enumerates all canonical
    witnesses at that order, in lexicographic order.  The node and wall
    budgets apply to each phase separately, so the whole call may spend up
    to twice either one.  Raises PartialResultError, carrying whatever was
    found, when a budget stops either phase from being conclusive.
    """
    if limit is None:
        limit = gs_number(r, kind).value - 1 + streak
    m_max, confirmed = max_order(
        kind, r, limit, streak=streak, node_budget=node_budget, wall_budget=wall_budget
    )
    if m_max == 0:
        if not confirmed:
            raise PartialResultError(
                f"no feasible order found below {limit} within budget", witnesses=()
            )
        return []
    cfg = SearchConfig(
        kind=kind,
        r=r,
        n=m_max,
        mode=SearchMode.ENUMERATE_ALL,
        node_budget=node_budget,
        wall_budget=wall_budget,
    )
    report = run_search(cfg, workers=workers, split_depth=split_depth)
    if not confirmed or not report.exhausted:
        raise PartialResultError(
            f"enumeration at order {m_max} is not conclusive within budget",
            witnesses=report.witnesses,
        )
    return list(report.witnesses)


def report_json(cfg: SearchConfig, report: SearchReport) -> str:
    """Stable JSON form of a search report (field order fixed)."""
    doc = {
        "kind": cfg.kind.value,
        "r": cfg.r,
        "n": cfg.n,
        "witnesses": [str(w) for w in report.witnesses],
        "nodes": report.nodes_explored,
        "exhausted": report.exhausted,
    }
    return json.dumps(doc)
