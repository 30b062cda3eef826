"""Forked worker processes for split searches (POSIX only).

`search.run_search` imports this module only when it runs subtree tasks
on two or more children, so no other command pays for it.  The parent
writes every task index to one shared pipe; each child takes indices
from it until it is drained, then sends back one pickle of its (index,
result) pairs on a pipe of its own and leaves with `os._exit`, so that
no buffered output or exit handler of the parent runs twice.  A child
that dies without a report, or whose error cannot be sent back, is
reported as a `WorkerError`.  That class is defined in `gskit.values`,
beside the CLI's other errors, so the CLI maps it to exit code 2
without importing this module.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Callable

from .values import WorkerError

# Indices go out in writes of at most 512 bytes, POSIX's least PIPE_BUF,
# so each write is atomic and every 4-byte read in a child gets one whole
# index.
_CHUNK = 128


def run_forked(fn: Callable, items: list, procs: int) -> list:
    """`fn` over every item on `procs` forked children, in item order.

    A child whose call raises sends the exception instead, and it is
    raised here; a child that dies without a report raises WorkerError
    with its exit status.  Either way, only after every child is reaped
    and every pipe closed.
    """
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
        for _ in range(procs):
            result_read, result_write = pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                _serve(fn, items, task_read, task_write, result_write)
            children.append((pid, result_read))
            close(result_write)
        close(task_read)
        try:
            for start in range(0, len(items), _CHUNK):
                chunk = range(start, min(start + _CHUNK, len(items)))
                os.write(task_write, struct.pack(f"<{len(chunk)}I", *chunk))
        except BrokenPipeError:
            pass  # every child is gone; their statuses say why
        close(task_write)
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

    results: list = [None] * len(items)
    for (pid, _), payload, status in zip(children, payloads, statuses):
        try:
            ok, value = pickle.loads(payload)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            raise WorkerError(
                f"search worker {pid} exited with status {code} and no report"
            ) from None
        if not ok:
            raise value
        for i, result in value:
            results[i] = result
    return results


def _serve(fn: Callable, items: list, task_read: int, task_write: int, result_write: int):
    """A child's whole life: call `fn` on the items whose indices it
    reads, report, and leave with `os._exit`."""
    code = 1
    try:
        os.close(task_write)
        done = []
        while index := os.read(task_read, 4):
            (i,) = struct.unpack("<I", index)
            done.append((i, fn(items[i])))
        payload = pickle.dumps((True, done))
        code = 0
    except BaseException as exc:  # re-raised in the parent
        try:
            payload = pickle.dumps((False, exc))
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps((False, WorkerError(f"search worker failed: {exc!r}")))
    finally:
        try:
            view = memoryview(payload)
            while view:
                view = view[os.write(result_write, view) :]
        finally:
            os._exit(code)
