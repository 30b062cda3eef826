"""Split runs on forked workers: process count, failures, and output."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import gskit.search as search
from gskit.core import Kind
from gskit.pool import run_forked
from gskit.search import SearchConfig, SearchMode, exists_partition, report_json, run_search

# Weak r = 5 at its maximal order splits into 9 tasks at the default depth.
_CFG = SearchConfig(kind=Kind.WEAK, r=5, n=89, mode=SearchMode.ENUMERATE_ALL)
# Weak r = 3 at n = 17 has two tasks at depth 2.
_SMALL = SearchConfig(kind=Kind.WEAK, r=3, n=17, mode=SearchMode.ENUMERATE_ALL)


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
    """Counts the children run_search forks."""
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
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if split_depth is not None:
        monkeypatch.setattr(search, "default_split_depth", lambda cfg: split_depth)
    report = run_search(cfg, workers=workers)
    assert len(forks) == want
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
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if setup == "one cpu":
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif setup == "no cpu count":
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    elif setup == "no fork":
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


class _TwoArgError(Exception):
    """Pickles, but cannot be unpickled: pickle rebuilds it from its one
    stored argument."""

    def __init__(self, a, b):
        super().__init__(a)


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


@pytest.mark.parametrize("walk_task, error, match", [
    (_raise_value_error, ValueError, r"^bad task \("),
    (_raise_unpicklable, RuntimeError, r"^search worker failed: .*LocalError\('from a class pickle"),
    (_raise_unloadable, RuntimeError, r"^search worker failed: _TwoArgError\('needs two arguments'\)$"),
    (_exit_7, RuntimeError, r"^search worker \d+ exited with status 7 and no report$"),
    (_kill_self, RuntimeError, r"^search worker \d+ exited with status -9 and no report$"),
])
def test_worker_failures_surface_after_cleanup(monkeypatch, forks, walk_task, error, match):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "_walk_task", walk_task)
    fds = _open_fds()
    with pytest.raises(error, match=match):
        run_search(_CFG, workers=2)
    assert len(forks) == 2
    assert _no_children_left()
    assert _open_fds() == fds


@pytest.mark.parametrize("cfg", [
    SearchConfig(kind=Kind.STRONG, r=3, n=9, mode=SearchMode.ENUMERATE_ALL),
    # Past the maximal order: no witness, and the deepest order is 9.
    SearchConfig(kind=Kind.STRONG, r=3, n=12, mode=SearchMode.ENUMERATE_ALL),
    _SMALL,
    _CFG,
])
@pytest.mark.parametrize("split_depth", [1, 2, 4, None])
@pytest.mark.parametrize("workers", [1, 2])
def test_split_walks_merge_into_the_sequential_walk(monkeypatch, cfg, split_depth, workers):
    # Witnesses, nodes, exhausted and deepest, each merged by its own rule,
    # equal the one walk of the whole tree, at the default depth (None) and
    # at depths patched in where _drive reads it.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if split_depth is not None:
        monkeypatch.setattr(search, "default_split_depth", lambda cfg: split_depth)
    want = search._explore(cfg, (), None)
    got = search._drive(cfg, workers)
    assert got == want._replace(frontier=[])
    assert _no_children_left()


def test_interrupted_parent_kills_and_reaps_its_children(forks):
    # The children would sleep for a minute; the alarm raises in the
    # parent while it waits for their reports.
    fds = _open_fds()
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        run_forked(time.sleep, [60, 60, 60], 2)
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    assert _no_children_left()
    assert _open_fds() == fds


def test_pool_runs_every_item_once_in_order():
    # Far more indices than one 512-byte write holds, on more workers than
    # this machine may have cores; the children need not pickle `fn`.
    items = list(range(1000))
    results = run_forked(lambda x: (x * x, os.getpid()), items, 3)
    assert [value for value, _ in results] == [x * x for x in items]
    pids = {pid for _, pid in results}
    assert os.getpid() not in pids and len(pids) <= 3
    assert _no_children_left()


# Writes to stdout before the search, with PYTHONUNBUFFERED unset so the
# line is still buffered at the fork: a child that flushed the buffers it
# inherited would print it again.
_CLI = """
import os, sys
sys.stdout.write("before the search\\n")
os.cpu_count = lambda: 2
from gskit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_cli_output_on_two_workers_is_exact():
    argv = ["search", "--kind", "weak", "--r", "5", "--n", "89", "--enumerate", "--json"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    runs = {}
    for workers in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _CLI, *argv, "--workers", workers],
            capture_output=True,
            check=True,
            timeout=120,
            env=env,
        )
        assert proc.stderr == b""
        runs[workers] = proc.stdout
    assert runs["1"] == runs["2"]
    report = report_json(_CFG, exists_partition(_CFG))
    assert runs["2"] == b"before the search\n" + report.encode() + b"\n"


@pytest.mark.parametrize("death, status", [
    ("os._exit(7)", "7"),
    ("os.kill(os.getpid(), signal.SIGKILL)", "-9"),
])
def test_cli_reports_a_dead_worker_in_one_line(death, status):
    # Every child dies in its first task: the command ends with one error
    # line and the input-error code, not a traceback.
    patch = (
        "import os, signal\n"
        "import gskit.search\n"
        f"gskit.search._walk_task = lambda task: {death}\n"
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
