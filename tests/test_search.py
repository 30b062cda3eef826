"""Backtracking search: correctness against the oracle, budgets, splitting."""

from __future__ import annotations

import pytest

from gskit.core import Kind, check_partition, is_canonical
from gskit.search import (
    STREAK,
    SubtreeTask,
    _drive,
    _explore,
    SearchConfig,
    SearchMode,
    SearchReport,
    default_split_depth,
    enumerate_maximal,
    exists_partition,
    max_order,
    parallel_split,
    report_json,
    run_search,
    run_task,
    walk_limit,
)
from gskit.values import gs_number

from oracle import naive_dfs, naive_enumerate, naive_search_tree, scan_max_order


def _cfg(kind, r, n, mode=SearchMode.FIRST_WITNESS, **kw):
    return SearchConfig(kind=kind, r=r, n=n, mode=mode, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(Kind.STRONG, 0, 4)
    with pytest.raises(ValueError):
        _cfg(Kind.STRONG, 2, 0)
    with pytest.raises(ValueError):
        _cfg(Kind.STRONG, 2, 4, node_budget=0)
    with pytest.raises(ValueError):
        _cfg(Kind.STRONG, 2, 4, wall_budget=0.0)


def test_first_witness_examples():
    rep = exists_partition(_cfg(Kind.STRONG, 2, 4))
    assert [str(w) for w in rep.witnesses] == ["1221"]
    assert not rep.exhausted  # stopped at the witness

    rep = exists_partition(_cfg(Kind.STRONG, 2, 5))
    assert rep.witnesses == ()
    assert rep.exhausted


def test_witnesses_are_canonical_verified_and_sorted():
    for kind, r, n in [
        (Kind.STRONG, 3, 9),
        (Kind.WEAK, 3, 17),
        (Kind.STRONG, 3, 7),
        (Kind.WEAK, 2, 6),
    ]:
        rep = run_search(_cfg(kind, r, n, SearchMode.ENUMERATE_ALL))
        assert rep.exhausted
        seen = [w.colors for w in rep.witnesses]
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)
        for w in rep.witnesses:
            assert is_canonical(w)
            assert check_partition(w, kind).ok
            assert w.r == r and w.n == n


def test_enumeration_matches_naive_oracle():
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in (1, 2, 3):
            for n in range(1, 10):
                rep = run_search(_cfg(kind, r, n, SearchMode.ENUMERATE_ALL))
                got = [w.colors for w in rep.witnesses]
                want = naive_enumerate(kind.value, r, n)
                assert got == want, (kind, r, n)


def test_max_order_examples():
    assert max_order(Kind.STRONG, 3, 20) == (9, True)
    assert max_order(Kind.STRONG, 2, 20) == (4, True)
    assert max_order(Kind.WEAK, 2, 20) == (8, True)
    assert max_order(Kind.STRONG, 1, 10) == (1, True)
    # The weak one-color maximum comes from {1, 2}; 1 + 2 = 3 kills n = 3.
    assert max_order(Kind.WEAK, 1, 10) == (2, True)


def test_max_order_respects_limit():
    # A walk that reaches the limit itself has proved the maximum there.
    m, confirmed = max_order(Kind.STRONG, 2, 4)
    assert m == 4
    assert confirmed
    m, confirmed = max_order(Kind.STRONG, 2, 7)
    assert (m, confirmed) == (4, True)


def test_streak_is_validated_by_walk_limit_not_config():
    # The margin past GS(r) - 1 is the constant STREAK, settable nowhere.
    assert STREAK == 5
    with pytest.raises(TypeError):
        walk_limit(Kind.STRONG, 2, 7, streak=5)
    assert "streak" not in SearchConfig.__slots__
    with pytest.raises(TypeError):
        max_order(Kind.STRONG, 2, 7, streak=5)
    with pytest.raises(TypeError):
        enumerate_maximal(Kind.STRONG, 2, streak=5)
    assert walk_limit(Kind.STRONG, 3) == 9 + 5
    assert walk_limit(Kind.WEAK, 2) == 8 + 5
    assert walk_limit(Kind.STRONG, 3, 20) == 20
    for limit in (0, -3):
        with pytest.raises(ValueError, match="limit must be positive"):
            walk_limit(Kind.STRONG, 1, limit)


def test_margin_past_the_closed_form_changes_no_answer():
    # Every ceiling above GS(r) - 1 walks the same tree, so STREAK can be
    # fixed: nodes, deepest order and the confirmed flag all agree.
    for kind, top in ((Kind.STRONG, 7), (Kind.WEAK, 6)):
        for r in range(1, top + 1):
            seen = set()
            for margin in (1, 2, STREAK, 50):
                limit = gs_number(r, kind).value - 1 + margin
                walk = _drive(_cfg(kind, r, limit))
                seen.add((walk.nodes, walk.deepest, walk.exhausted or bool(walk.witnesses)))
            assert len(seen) == 1, (kind, r, seen)
            assert seen.pop()[1:] == (gs_number(r, kind).value - 1, True)


def test_max_order_matches_per_order_scan():
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in range(1, 6):
            top = gs_number(r, kind).value + 5
            feasible = [False] + [
                bool(exists_partition(_cfg(kind, r, n)).witnesses)
                for n in range(1, top + 1)
            ]
            for limit in range(1, top + 1):
                for streak in (1, 2, 5):
                    want = scan_max_order(feasible.__getitem__, limit, streak)
                    got = max_order(kind, r, limit)
                    assert got == (want, True), (kind, r, limit, streak)


def test_max_order_proves_closed_form():
    # Strong r = 9 walks to depth 1254, past the default recursion limit.
    cases = [(Kind.STRONG, r) for r in (6, 7, 8, 9)]
    cases += [(Kind.WEAK, r) for r in (6, 7, 8)]
    for kind, r in cases:
        m = gs_number(r, kind).value - 1
        assert max_order(kind, r, m + 5) == (m, True), (kind, r)


def test_max_order_budget_leaves_unconfirmed():
    m, confirmed = max_order(Kind.STRONG, 3, 20, node_budget=4)
    assert not confirmed


def test_node_budget_truncates():
    rep = run_search(_cfg(Kind.WEAK, 4, 44, SearchMode.ENUMERATE_ALL, node_budget=10))
    assert not rep.exhausted
    assert rep.nodes_explored <= 10


def test_wall_budget_truncates():
    rep = run_search(
        _cfg(Kind.WEAK, 4, 44, SearchMode.ENUMERATE_ALL, wall_budget=1e-9)
    )
    assert not rep.exhausted


def _maximal(kind, r, **kw):
    return [str(w) for w in enumerate_maximal(kind, r, **kw).report.witnesses]


def test_enumerate_maximal_counts():
    assert _maximal(Kind.STRONG, 2) == ["1221"]
    assert _maximal(Kind.STRONG, 3) == [
        "121313121",
        "122131221",
    ]
    assert _maximal(Kind.WEAK, 2) == ["11212221"]
    assert _maximal(Kind.WEAK, 3) == [
        "12121312131313121",
    ]


def test_enumerate_maximal_budget_error_carries_partials():
    found = enumerate_maximal(Kind.WEAK, 3, node_budget=5)
    assert not found.confirmed
    assert found.report is None
    found = enumerate_maximal(Kind.STRONG, 3, node_budget=12)
    assert (found.m_max, found.confirmed) == (9, False)
    assert not found.report.exhausted
    assert [str(w) for w in found.report.witnesses] == ["121313121"]


@pytest.mark.parametrize("kind, r, budget", [
    *[(Kind.STRONG, r, None) for r in range(1, 5)],
    *[(Kind.WEAK, r, None) for r in range(1, 4)],
    (Kind.STRONG, 3, 12),
])
def test_enumerate_maximal_is_the_cli_flow(capsys, kind, r, budget):
    # `gskit search --enumerate --json` without --n prints the report of
    # this very call, at n = m_max.
    from gskit.cli import main

    found = enumerate_maximal(kind, r, node_budget=budget)
    cfg = SearchConfig(kind=kind, r=r, n=found.m_max, mode=SearchMode.ENUMERATE_ALL)
    argv = ["search", "--kind", kind.value, "--r", str(r), "--enumerate", "--json"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code = main(argv)
    assert capsys.readouterr() == (report_json(cfg, found.report) + "\n", "")
    assert code == (0 if found.confirmed and found.report.exhausted else 3)


def test_parallel_split_examples():
    tasks = parallel_split(_cfg(Kind.STRONG, 2, 4, SearchMode.ENUMERATE_ALL), 0)
    assert [t.prefix for t in tasks] == [()]
    tasks = parallel_split(_cfg(Kind.STRONG, 2, 4, SearchMode.ENUMERATE_ALL), 1)
    assert [t.prefix for t in tasks] == [(1,)]
    with pytest.raises(ValueError):
        parallel_split(_cfg(Kind.STRONG, 2, 4), 5)


def test_parallel_split_partitions_the_tree(monkeypatch):
    cfg = _cfg(Kind.STRONG, 3, 9, SearchMode.ENUMERATE_ALL)
    sequential = run_search(cfg, workers=1)
    for depth in (1, 2, 3, 5, 9):
        tasks = parallel_split(cfg, depth)
        merged = []
        nodes_below = 0
        for task in tasks:
            rep = run_task(task)
            merged.extend(rep.witnesses)
            nodes_below += rep.nodes_explored
        assert tuple(merged) == sequential.witnesses, depth
        # Shallow nodes are exactly the split prefixes' proper ancestors
        # plus the prefixes themselves; totals must match the sequential
        # count once the coordinator's share is added back.
        shallow = sequential.nodes_explored - nodes_below
        assert shallow >= 0
        monkeypatch.setattr("gskit.search.default_split_depth", lambda cfg: depth)
        full = run_search(cfg, workers=2)
        assert full == sequential


def test_run_search_identical_across_workers_and_depths(monkeypatch):
    cfg = _cfg(Kind.WEAK, 3, 17, SearchMode.ENUMERATE_ALL)
    baseline = run_search(cfg, workers=1)
    for workers in (1, 2, 4):
        for depth in (default_split_depth(cfg), 0, 2, 4):
            # The parent reads the split depth from the config in _drive.
            monkeypatch.setattr("gskit.search.default_split_depth", lambda cfg: depth)
            rep = run_search(cfg, workers=workers)
            assert rep == baseline
            assert report_json(cfg, rep) == report_json(cfg, baseline)


def test_first_witness_ignores_worker_count():
    cfg = _cfg(Kind.STRONG, 3, 9)
    assert run_search(cfg, workers=8) == exists_partition(cfg)


def test_run_task_rejects_bad_prefix():
    cfg = _cfg(Kind.STRONG, 2, 4, SearchMode.ENUMERATE_ALL)
    with pytest.raises(ValueError):
        run_task(SubtreeTask(config=cfg, prefix=(2,)))  # violates symmetry order
    with pytest.raises(ValueError):
        run_task(SubtreeTask(config=cfg, prefix=(1, 1)))  # monochromatic 1+1=2
    with pytest.raises(ValueError, match="at position 5$"):
        run_task(SubtreeTask(config=cfg, prefix=(1, 2, 2, 1, 1)))  # longer than n


@pytest.mark.parametrize("mode", list(SearchMode))
def test_run_search_checks_parallelism_before_searching(monkeypatch, mode):
    monkeypatch.setattr("gskit.search._explore", None)
    cfg = _cfg(Kind.WEAK, 3, 17, mode)
    with pytest.raises(ValueError, match="^worker count must be positive$"):
        run_search(cfg, workers=0)


@pytest.mark.parametrize("workers", [0, -1])
def test_enumerate_maximal_checks_parallelism_before_the_walk(monkeypatch, workers):
    def walk(*args, **kwargs):
        raise AssertionError("max_order was called")

    monkeypatch.setattr("gskit.search.max_order", walk)
    with pytest.raises(ValueError, match="^worker count must be positive$"):
        enumerate_maximal(Kind.STRONG, 9, workers=workers)


def test_default_split_depth_is_config_pure():
    cfg = _cfg(Kind.STRONG, 4, 24, SearchMode.ENUMERATE_ALL)
    assert default_split_depth(cfg) == default_split_depth(cfg)
    assert default_split_depth(_cfg(Kind.STRONG, 2, 4)) == 0


def test_report_json_schema():
    cfg = _cfg(Kind.STRONG, 2, 4)
    rep = exists_partition(cfg)
    assert report_json(cfg, rep) == (
        '{"kind": "strong", "r": 2, "n": 4, "witnesses": ["1221"],'
        ' "nodes": 5, "exhausted": false}'
    )


def test_stretch_orders_for_five_colors():
    # Not part of the acceptance gate, but cheap enough to pin down: the
    # five-color maxima land exactly one below the closed forms.
    assert max_order(Kind.STRONG, 5, 54) == (49, True)
    assert max_order(Kind.WEAK, 5, 94) == (89, True)


def test_five_color_enumeration():
    strong = enumerate_maximal(Kind.STRONG, 5).report.witnesses
    assert len(strong) == 3
    weak = enumerate_maximal(Kind.WEAK, 5).report.witnesses
    assert len(weak) == 2
    for w in strong:
        assert check_partition(w, Kind.STRONG).ok
    for w in weak:
        assert check_partition(w, Kind.WEAK).ok


def test_maximal_partition_counts():
    for kind, r, n, count in [
        (Kind.STRONG, 6, 124, 1),
        (Kind.STRONG, 7, 249, 4),
        (Kind.STRONG, 8, 624, 1),
        (Kind.WEAK, 6, 224, 1),
    ]:
        rep = run_search(_cfg(kind, r, n, SearchMode.ENUMERATE_ALL))
        assert rep.exhausted and len(rep.witnesses) == count, (kind, r)
        for w in rep.witnesses:
            assert check_partition(w, kind).ok
        rep = run_search(_cfg(kind, r, n + 1, SearchMode.ENUMERATE_ALL))
        assert rep.exhausted and rep.witnesses == (), (kind, r)


# (kind, r, n, mode, node budget) -> (witnesses, nodes, exhausted, deepest),
# as the engine before the branch-point stack reported them.
_PINNED = [
    (Kind.WEAK, 8, 500, SearchMode.ENUMERATE_ALL, None, (76, 31_118, True, 500)),
    (Kind.STRONG, 8, 624, SearchMode.ENUMERATE_ALL, None, (1, 9_104, True, 624)),
    (Kind.STRONG, 9, 1255, SearchMode.FIRST_WITNESS, None, (0, 31_401, True, 1_249)),
    (Kind.WEAK, 8, 500, SearchMode.ENUMERATE_ALL, 10_000, (19, 10_000, False, 500)),
]


@pytest.mark.parametrize("kind, r, n, mode, budget, want", _PINNED)
def test_engine_counts_are_pinned(kind, r, n, mode, budget, want):
    witnesses, nodes, exhausted, frontier, deepest = _explore(
        _cfg(kind, r, n, mode, node_budget=budget), (), None
    )
    assert (len(witnesses), nodes, exhausted, deepest) == want
    assert frontier == []


def _walk_oracle_tree(tree, r, n, mode, budget, stop_depth, prefix):
    """What `_explore` returns, read off the oracle's depth-first node list:
    the prefix's node first, then the nodes below it down to the stop
    depth, each counted as it is entered until the budget is spent."""
    below = [
        p for p in tree
        if len(p) > len(prefix) and p[: len(prefix)] == prefix
        and (stop_depth is None or len(p) <= stop_depth)
    ]
    witnesses, frontier = [], []
    nodes = deepest = 0
    exhausted = True
    for i, p in enumerate([prefix] + below):
        if i:
            if nodes == budget:
                exhausted = False
                break
            nodes += 1
            if max(p) == r:
                deepest = max(deepest, len(p))
        if stop_depth is not None and len(p) >= stop_depth:
            frontier.append(p)
        elif len(p) == n and max(p, default=0) == r:
            witnesses.append(p)
            if mode is SearchMode.FIRST_WITNESS:
                exhausted = False
                break
    return witnesses, nodes, exhausted, frontier, deepest


def test_engine_matches_naive_tree_walk():
    # Budgets, stop depths and prefixes replayed from inside the tree.
    for kind in (Kind.STRONG, Kind.WEAK):
        for r in (1, 2, 3, 4):
            for n in range(1, 9 if r == 4 else 10):
                tree = naive_search_tree(kind.value, r, n)
                prefixes = [()] + [p for p in tree if len(p) <= 3][:: 3]
                for mode in SearchMode:
                    for budget in (None, 1, 4, 25):
                        cfg = _cfg(kind, r, n, mode, node_budget=budget)
                        for stop_depth in (None, 0, 1, 3, 6):
                            for prefix in prefixes:
                                want = _walk_oracle_tree(
                                    tree, r, n, mode, budget, stop_depth, prefix
                                )
                                got = _explore(cfg, prefix, stop_depth)
                                assert got == want, (kind, r, n, mode, budget, stop_depth, prefix)


@pytest.mark.parametrize("kind, r, n", [
    (Kind.STRONG, 4, 44),
    (Kind.STRONG, 4, 45),
    (Kind.WEAK, 4, 44),
    (Kind.WEAK, 5, 89),
    (Kind.STRONG, 5, 124),
    # The smallest trees where a color placed past n / 2, and undone by a
    # resume there, is placed past n / 2 again after a resume below n / 2:
    # that resume must drop the cached x of every color, not only of the
    # colors it undoes.
    (Kind.STRONG, 6, 43),
    (Kind.WEAK, 6, 43),
])
def test_engine_matches_naive_dfs_at_larger_orders(kind, r, n):
    # Deep enough for the packed masks to grow and for rows past n to be
    # carried through the second half of the order.
    depth = 12
    _, _, _, shallow, _ = naive_dfs(kind.value, r, n, "enumerate-all", None, depth, ())
    prefixes = [()] + shallow[:: max(1, len(shallow) // 3)][:3]
    for mode in SearchMode:
        for budget in (None, 1, 100, 700):
            cfg = _cfg(kind, r, n, mode, node_budget=budget)
            for stop_depth in (None, 0, 3, 30, 60):
                for prefix in prefixes:
                    want = naive_dfs(kind.value, r, n, mode.value, budget, stop_depth, prefix)
                    got = _explore(cfg, prefix, stop_depth)
                    assert got == want, (mode, budget, stop_depth, prefix)


@pytest.mark.slow
@pytest.mark.parametrize("kind, r, limit, nodes, deepest", [
    (Kind.STRONG, 10, 3129, 108_325, 3_124),
    (Kind.WEAK, 9, 2254, 161_650, 2_249),
    (Kind.STRONG, 11, 6254, 373_658, 6_249),
    (Kind.WEAK, 10, 5629, 557_786, 5_624),
])
def test_deepest_walks_prove_the_closed_form(kind, r, limit, nodes, deepest):
    # Orders in the thousands, where the packed masks are widest: the
    # dead-end undo and the second half of the order run at widths the
    # _PINNED cases never reach, so the whole walk is pinned too.
    # Deselected by default; run with `pytest -m slow`.
    assert _explore(_cfg(kind, r, limit), (), None) == ([], nodes, True, [], deepest)
    assert max_order(kind, r, limit) == (deepest, True)


@pytest.mark.slow
@pytest.mark.parametrize("kind, r, count", [
    (Kind.STRONG, 9, 5),
    (Kind.STRONG, 10, 1),
    (Kind.WEAK, 9, 4),
])
def test_deepest_maximal_enumerations(kind, r, count):
    witnesses = enumerate_maximal(kind, r).report.witnesses
    assert len(witnesses) == count
    for w in witnesses:
        assert (w.n, w.r) == (gs_number(r, kind).value - 1, r)
        assert is_canonical(w) and check_partition(w, kind).ok


def test_max_order_memory_stays_flat_at_64_colors():
    # The engine keeps forbid lists only at branch points, not at every
    # node of the path: 4,000 nodes at r = 64 once traced over 75 MB.
    import tracemalloc

    tracemalloc.start()
    try:
        m, confirmed = max_order(Kind.STRONG, 64, 10**6, node_budget=4_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m, confirmed) == (0, False)
    assert peak < 8 * 2**20
