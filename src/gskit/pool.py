"""Forked worker processes for split searches (POSIX only).

`search.run_search` imports this module only when it runs subtree tasks
on two or more processes, so no other command pays for it.  A run on P
processes forks P - 1 children and counts the parent as the P-th.
Before it forks, the parent writes every task index, one byte each, to
one shared pipe and closes its write end; then it takes indices from the
pipe like the children until it is drained.  Each child sends back
its (index, result) pairs with `marshal`, on a pipe of its own, and
leaves with `os._exit`, so that no buffered output or exit handler of
the parent runs twice.  Only a failed task's exception travels by
`pickle`, imported on that path alone, so that it keeps its type.  A
child that dies without a report, or whose error cannot be sent back, is
reported as a `WorkerError`.  That class is defined in `gskit.values`,
beside the CLI's other errors, so the CLI maps it to exit code 2 without
importing this module.
"""

from __future__ import annotations

import marshal
import os
from collections.abc import Callable

from .values import WorkerError

# One byte per index, all in one write: at most 256 bytes, within POSIX's
# least PIPE_BUF (512), so the write is atomic and the pipe holds it whole
# before any child reads.
_MAX_ITEMS = 256

# The first byte of a child's report: its results by marshal, or its
# exception by pickle.
_DONE, _FAILED = b"M", b"P"


def run_forked(fn: Callable, items: list, procs: int) -> list:
    """`fn` over every item on `procs` processes, the parent and `procs - 1`
    forked children, in item order.

    The results that children compute must be values `marshal` writes:
    numbers, strings, bytes, and tuples, lists, sets and dicts of them.
    There may be at most 256 items, one byte of the task pipe each.

    A task that raises in a child sends its exception back, and it is
    raised here; a child that dies without a report raises WorkerError
    with its exit status.  Either way, only after every child is reaped
    and every pipe closed.  An exception in the parent's own tasks kills
    the children, and is raised once they are reaped and every pipe is
    closed too.
    """
    if procs < 2:
        raise ValueError(f"a forked run needs at least 2 processes, got {procs}")
    if len(items) > _MAX_ITEMS:
        raise ValueError(f"a forked run takes at most {_MAX_ITEMS} items, got {len(items)}")
    open_fds: set[int] = set()

    def pipe() -> tuple[int, int]:
        ends = os.pipe()
        open_fds.update(ends)
        return ends

    def close(fd: int):
        open_fds.discard(fd)
        os.close(fd)

    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    payloads: list[bytes] = []
    try:
        task_read, task_write = pipe()
        os.write(task_write, bytes(range(len(items))))
        close(task_write)
        for _ in range(procs - 1):
            result_read, result_write = pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                _serve(fn, items, task_read, result_write)
            children.append((pid, result_read))
            close(result_write)
        done = _take(fn, items, task_read)
        close(task_read)
        for _, fd in children:
            parts = []
            while part := os.read(fd, 1 << 16):
                parts.append(part)
            payloads.append(b"".join(parts))
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in list(open_fds):
            close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]

    for (pid, _), payload, status in zip(children, payloads, statuses):
        tag, body = payload[:1], memoryview(payload)[1:]
        error = None
        try:
            if tag == _DONE:
                done += marshal.loads(body)
                continue
            if tag == _FAILED:
                error = _pickle().loads(body)
        except Exception:
            pass  # no report, or one cut short: the child died first
        if error is None:
            code = os.waitstatus_to_exitcode(status)
            raise WorkerError(f"search worker {pid} exited with status {code} and no report")
        raise error
    results: list = [None] * len(items)
    for i, result in done:
        results[i] = result
    return results


def _take(fn: Callable, items: list, task_read: int) -> list:
    """(index, result) for each index read from the task pipe until it is
    drained."""
    done = []
    while index := os.read(task_read, 1):
        i = index[0]
        done.append((i, fn(items[i])))
    return done


def _pickle():
    """The `pickle` module, imported only once a task has failed, so that
    a run whose tasks all succeed never loads it."""
    import pickle

    return pickle


def _serve(fn: Callable, items: list, task_read: int, result_write: int):
    """A child's whole life: call `fn` on the items whose indices it
    reads, report, and leave with `os._exit`."""
    code = 1
    try:
        payload = _DONE + marshal.dumps(_take(fn, items, task_read))
        code = 0
    except BaseException as exc:  # re-raised in the parent
        pickle = _pickle()
        try:
            payload = pickle.dumps(exc)
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps(WorkerError(f"search worker failed: {exc!r}"))
        payload = _FAILED + payload
    finally:
        try:
            view = memoryview(payload)
            while view:
                view = view[os.write(result_write, view) :]
        finally:
            os._exit(code)
