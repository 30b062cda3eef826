"""Split runs on forked workers: process count, failures, and output."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

import gskit.search as search
from gskit.core import Kind
from gskit.pool import run_forked
from gskit.search import SearchConfig, SearchMode, exists_partition, report_json, run_search

# Weak r = 5 at its maximal order splits into 9 tasks at the default depth.
_CFG = SearchConfig(kind=Kind.WEAK, r=5, n=89, mode=SearchMode.ENUMERATE_ALL)
# Weak r = 3 at n = 17 has two tasks at depth 2.
_SMALL = SearchConfig(kind=Kind.WEAK, r=3, n=17, mode=SearchMode.ENUMERATE_ALL)

# The test process: a split run's parent, which takes tasks like its children.
_PARENT = os.getpid()
_WALK_TASK = search._walk_task


@pytest.fixture(autouse=True)
def time_limit():
    """Turns a hung pool into a failure: the alarm raises in the parent,
    which then kills and reaps its children."""

    def expire(signum, frame):
        raise TimeoutError("search workers did not finish")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """Counts the children run_search forks: one fewer than its processes."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("workers, cpus, cfg, split_depth, want", [
    (8, 2, _CFG, None, 2),  # capped by the CPUs
    (3, 8, _CFG, None, 3),  # by the workers asked for
    (4, 8, _SMALL, 2, 2),  # by the tasks
])
def test_process_count_is_bounded(monkeypatch, forks, workers, cpus, cfg, split_depth, want):
    # `want` processes, the parent among them, so one fork fewer.
    monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
    if split_depth is not None:
        monkeypatch.setattr(search, "default_split_depth", lambda cfg: split_depth)
    report = run_search(cfg, workers=workers)
    assert len(forks) == want - 1
    assert report == exists_partition(cfg)
    assert _no_children_left()


def _explore_depths(monkeypatch):
    depths = []
    real_explore = search._explore

    def recording_explore(cfg, prefix, stop_depth):
        depths.append(stop_depth)
        return real_explore(cfg, prefix, stop_depth)

    monkeypatch.setattr(search, "_explore", recording_explore)
    return depths


@pytest.mark.parametrize("setup", ["one worker", "one cpu", "no cpu count", "no fork", "threads"])
def test_single_process_runs_do_not_split(monkeypatch, forks, setup):
    want = exists_partition(_CFG)
    workers = 1 if setup == "one worker" else 2
    if setup == "no cpu count":
        # No affinity set to read, and no CPU count either.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(search, "_usable_cpus", lambda: 1 if setup == "one cpu" else 2)
    if setup == "no fork":
        monkeypatch.delattr(os, "fork")
    depths = _explore_depths(monkeypatch)
    if setup == "threads":
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert run_search(_CFG, workers=workers) == want
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
    else:
        assert run_search(_CFG, workers=workers) == want
    assert depths == [None]
    assert forks == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_a_run_pinned_to_one_cpu_never_forks(forks):
    # As under `taskset -c 0` or a one-CPU cpuset: os.cpu_count() still
    # reports every CPU of the machine, but the run may use only one.
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(pinned)})
    try:
        assert search._usable_cpus() == 1
        assert run_search(_CFG, workers=2) == exists_partition(_CFG)
    finally:
        os.sched_setaffinity(0, pinned)
    assert forks == []


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert search._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert search._usable_cpus() == 5


class _TwoArgError(Exception):
    """Pickles, but cannot be unpickled: pickle rebuilds it from its one
    stored argument."""

    def __init__(self, a, b):
        super().__init__(a)


@contextmanager
def _faulty(fault, where, work=_WALK_TASK):
    """A task function that runs `fault` everywhere, in the parent only, or
    in the forked children only, and `work` elsewhere.  With the fault in
    the children, the parent waits in each of its tasks until a child has
    started one, so a child meets the fault however fast the parent drains
    the tasks."""
    read_end, write_end = os.pipe()

    def task_function(task):
        if where == "children":
            if os.getpid() != _PARENT:
                os.write(write_end, b"!")
                return fault(task)
            select.select([read_end], [], [], 60)
            return work(task)
        if where == "parent" and os.getpid() != _PARENT:
            return work(task)
        return fault(task)

    try:
        yield task_function
    finally:
        os.close(read_end)
        os.close(write_end)


def _raise_unpicklable(task):
    class LocalError(Exception):
        pass

    raise LocalError("from a class pickle cannot find")


def _raise_unloadable(task):
    raise _TwoArgError("needs two arguments", 2)


def _raise_value_error(task):
    raise ValueError(f"bad task {task.prefix}")


def _exit_7(task):
    os._exit(7)


def _kill_self(task):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fault, where, error, match", [
    (_raise_value_error, "everywhere", ValueError, r"^bad task \("),
    (_raise_value_error, "parent", ValueError, r"^bad task \("),
    (_raise_unpicklable, "children", RuntimeError,
     r"^search worker failed: .*LocalError\('from a class pickle"),
    (_raise_unloadable, "children", RuntimeError,
     r"^search worker failed: _TwoArgError\('needs two arguments'\)$"),
    (_exit_7, "children", RuntimeError, r"^search worker \d+ exited with status 7 and no report$"),
    (_kill_self, "children", RuntimeError,
     r"^search worker \d+ exited with status -9 and no report$"),
])
def test_worker_failures_surface_after_cleanup(monkeypatch, forks, fault, where, error, match):
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    with _faulty(fault, where) as walk_task:
        monkeypatch.setattr(search, "_walk_task", walk_task)
        fds = _open_fds()
        with pytest.raises(error, match=match):
            run_search(_CFG, workers=2)
        assert len(forks) == 1
        assert _no_children_left()
        assert _open_fds() == fds


def test_worker_error_has_one_class_that_pickles():
    # Defined beside the CLI's other errors and re-exported by the pool; a
    # child sends it to the parent by pickle, which finds it by its path.
    import pickle

    import gskit.pool
    import gskit.values

    assert gskit.pool.WorkerError is gskit.values.WorkerError
    error = gskit.values.WorkerError("search worker 7 exited with status 9 and no report")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is gskit.values.WorkerError
    assert copy.args == error.args


@pytest.mark.parametrize("cfg", [
    SearchConfig(kind=Kind.STRONG, r=3, n=9, mode=SearchMode.ENUMERATE_ALL),
    # Past the maximal order: the walk keeps the paths of its deepest order,
    # 9; at split depth 12 the shallow walk holds them all.
    SearchConfig(kind=Kind.STRONG, r=3, n=12, mode=SearchMode.ENUMERATE_ALL),
    _SMALL,
    _CFG,
])
@pytest.mark.parametrize("split_depth", [1, 2, 4, 12, None])
@pytest.mark.parametrize("workers", [1, 2])
def test_split_walks_merge_into_the_sequential_walk(monkeypatch, cfg, split_depth, workers):
    # Witnesses, nodes, exhausted and deepest, each merged by its own rule,
    # equal the one walk of the whole tree, at the default depth (None) and
    # at depths patched in where _drive reads it.
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    if split_depth is not None:
        monkeypatch.setattr(search, "default_split_depth", lambda cfg: split_depth)
    want = search._explore(cfg, (), None)
    got = search._drive(cfg, workers)
    assert got == want._replace(frontier=[])
    assert _no_children_left()


def test_interrupted_parent_kills_and_reaps_its_children(forks):
    # The child and the parent each sleep for a minute in a task of their
    # own; the alarm raises in the parent while it sleeps.
    fds = _open_fds()
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        run_forked(time.sleep, [60, 60, 60], 2)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert _no_children_left()
    assert _open_fds() == fds


def test_pool_runs_every_item_once_in_order(forks):
    # As many indices as the task pipe takes, on more processes than this
    # machine may have cores; the children need not pickle `fn`.  The
    # parent is one of the three processes.
    items = list(range(256))
    results = run_forked(lambda x: (x * x, os.getpid()), items, 3)
    assert [value for value, _ in results] == [x * x for x in items]
    assert len(forks) == 2
    assert {pid for _, pid in results} <= {os.getpid(), *forks}
    assert _no_children_left()


def test_pool_refuses_more_items_than_its_task_pipe_takes(forks):
    # One byte per index: 257 items are refused before any pipe or fork.
    fds = _open_fds()
    with pytest.raises(ValueError, match=r"^a forked run takes at most 256 items, got 257$"):
        run_forked(str, list(range(257)), 2)
    assert forks == []
    assert _open_fds() == fds


def test_pool_refuses_a_run_on_one_process():
    with pytest.raises(ValueError, match=r"^a forked run needs at least 2 processes, got 1$"):
        run_forked(str, [1, 2], 1)


def test_pool_reports_an_unmarshallable_result():
    # Only a child's results travel by marshal.
    with _faulty(lambda x: object(), "children", work=str) as fn:
        with pytest.raises(ValueError, match="unmarshallable object"):
            run_forked(fn, [1, 2, 3, 4], 2)
    assert _no_children_left()


# Writes to stdout before the search, with PYTHONUNBUFFERED unset so the
# line is still buffered at the fork: a child that flushed the buffers it
# inherited would print it again.
_CLI = """
import os, sys
sys.stdout.write("before the search\\n")
import gskit.search
gskit.search._usable_cpus = lambda: 2
from gskit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _cli_runs(argv, patch=""):
    """The stdout of the command at --workers 1 and 2, keyed by the count."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    runs = {}
    for workers in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", patch + _CLI, *argv, "--workers", workers],
            capture_output=True,
            check=True,
            timeout=120,
            env=env,
        )
        assert proc.stderr == b""
        runs[workers] = proc.stdout
    return runs


def test_cli_output_on_two_workers_is_exact():
    argv = ["search", "--kind", "weak", "--r", "5", "--n", "89", "--enumerate", "--json"]
    runs = _cli_runs(argv)
    assert runs["1"] == runs["2"]
    report = report_json(_CFG, exists_partition(_CFG))
    assert runs["2"] == b"before the search\n" + report.encode() + b"\n"


@pytest.mark.parametrize("kind, r, split_depth", [
    # The walk to the ceiling 94 splits at depth 8, below m_max = 89.
    (Kind.WEAK, 5, None),
    # Above m_max = 9: the shallow walk holds the deepest order, and no task
    # is left below it.
    (Kind.STRONG, 3, 12),
])
def test_cli_maximal_enumeration_on_two_workers_is_exact(kind, r, split_depth):
    argv = ["search", "--kind", kind.value, "--r", str(r), "--enumerate", "--json"]
    patch = "" if split_depth is None else (
        f"import gskit.search\ngskit.search.default_split_depth = lambda cfg: {split_depth}\n"
    )
    runs = _cli_runs(argv, patch)
    assert runs["1"] == runs["2"]
    found = search.enumerate_maximal(kind, r)
    cfg = SearchConfig(kind=kind, r=r, n=found.m_max, mode=SearchMode.ENUMERATE_ALL)
    report = report_json(cfg, found.report)
    assert runs["2"] == b"before the search\n" + report.encode() + b"\n"


@pytest.mark.parametrize("death, status", [
    ("os._exit(7)", "7"),
    ("os.kill(os.getpid(), signal.SIGKILL)", "-9"),
])
def test_cli_reports_a_dead_worker_in_one_line(death, status):
    # The child dies in its first task, while the parent walks its own: the
    # command ends with one error line and the input-error code, not a
    # traceback.
    patch = (
        "import os, select, signal\n"
        "import gskit.search\n"
        "parent, walk_task = os.getpid(), gskit.search._walk_task\n"
        "started = os.pipe()\n"
        "def faulty(task):\n"
        "    if os.getpid() == parent:\n"
        "        select.select([started[0]], [], [], 60)\n"
        "        return walk_task(task)\n"
        "    os.write(started[1], b'!')\n"
        f"    {death}\n"
        "gskit.search._walk_task = faulty\n"
    )
    argv = ["search", "--kind", "weak", "--r", "5", "--n", "89", "--enumerate"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", patch + _CLI, *argv, "--workers", "2"],
        capture_output=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 2
    assert re.fullmatch(
        rf"error: search worker \d+ exited with status {status} and no report\n".encode(),
        proc.stderr,
    ), proc.stderr
    assert proc.stdout == b"before the search\n"
