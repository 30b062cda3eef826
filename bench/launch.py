"""Command launcher for bench/run.py: spawns each command from a small process.

A child started with vfork and exec inherits its parent's peak RSS as its
own starting ru_maxrss, so spawning from the harness itself would put a
floor of the harness's size under every command's peak_rss_mb.  This
process stays small: it imports nothing beyond the standard library basics.

Protocol, one JSON line each way per command:
  request  [argv, stdin path, stdout path, stderr path, time limit in s]
  reply    [wall s, user CPU s, system CPU s, peak RSS KiB, wait status]
Each command runs in its own session; at the time limit the whole session
is killed, as is anything still left in it when the command exits.
"""

import json
import os
import signal
import sys
import time

current = 0  # session (= process group) id of the running command


def kill_current(*_):
    try:
        os.killpg(current, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop(*_):
    if current:
        kill_current()
    sys.exit(1)


def main():
    global current
    signal.signal(signal.SIGALRM, kill_current)
    signal.signal(signal.SIGTERM, stop)
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        argv, stdin, out, err, limit = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, stdin, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, write, 0o644),
        ]
        t0 = time.perf_counter()
        current = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions, setsid=True)
        signal.setitimer(signal.ITIMER_REAL, limit)
        _, status, usage = os.wait4(current, 0)
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        kill_current()
        current = 0
        print(json.dumps([wall, usage.ru_utime, usage.ru_stime, usage.ru_maxrss, status]), flush=True)


if __name__ == "__main__":
    main()
