#!/usr/bin/env python3
"""gskit benchmark: four CLI workloads, end-to-end metrics, per-layer timings.

One run measures one workload:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Every command is a fresh `python -m gskit.cli` process with PYTHONPATH=src,
driven by this single process in a closed loop with one client: a command
starts only after the previous one has exited.  One pass over a
workload's command list is a cycle; a run repeats cycles until the next
one would overrun `--seconds`.  Inputs are generated from `--seed` before
timing starts, and every output is checked: exit code, pinned sha256 or a
structural witness check, and no traceback on stderr.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run (spans come
from bench/layers.py).  `--all` runs every workload in both modes, prints
every metric with its quartiles and sample count, and writes the results
and a run record to bench/results/BENCH_<commit>.json.  bench/README.md
says why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TRACEBACK = b"Traceback (most recent call last)"

# A run must end inside the 180 s a run is allowed, whatever the program
# does; a command still running at this point is killed.
HARD_LIMIT_S = 165.0
# The host's speed drifts by up to 2x over minutes (see bench/README.md), so
# end-to-end times are scaled to a reference speed: just before every cycle
# the run times REFERENCE, a fixed program that uses only the interpreter
# and its standard library (start-up, the imports gskit makes, a recursive
# search in plain Python and a large string join), and scales that cycle's
# wall, CPU and set-up times by REFERENCE_S / that reference time; wall_s,
# cpu_s and setup_s are the medians of the scaled times.  No gskit code runs
# in REFERENCE, so only the host moves it.  REFERENCE_S is its median over
# 40 runs on the 2-vCPU 2.0 GHz Xeon virtual machine the bounds were set
# on, so scaled times read as seconds there.
REFERENCE = """
import argparse, concurrent.futures, dataclasses, enum, json, pathlib, re


def colourings(r, limit):
    col = [0] * (limit + 1)
    count = 0

    def go(n):
        nonlocal count
        if n > limit:
            count += 1
            return
        for k in range(1, r + 1):
            if all(col[a] != k or col[n - a] != k for a in range(1, n // 2 + 1)):
                col[n] = k
                go(n + 1)
        col[n] = 0

    go(1)
    return count


assert [colourings(3, 13) for _ in range(4)] == [18] * 4
assert len(" ".join(str(i) for i in range(100000))) == 588889
"""
REFERENCE_S = 0.18

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Per-layer metrics, named <module>.<metric>.  Units "count" are counts the
# program reports or the harness observes; "count-calc" marks counts the
# harness computes from a result (check_pairs from the stopping c).
PER_LAYER = {
    "core.check_partition_s": "s",
    "core.check_pairs": "count-calc",
    "core.check_pairs_per_s": "1/s",
    "core.check_full_pairs_per_s": "1/s",
    "core.check_early_pairs_per_s": "1/s",
    "core.parse_s": "s",
    "core.to_file_form_s": "s",
    "core.self_s": "s",
    "construct.maximal_partition_s": "s",
    "construct.entries_built": "count",
    "construct.self_s": "s",
    "structure.decompose_full_s": "s",
    "structure.peels": "count",
    "structure.self_s": "s",
    "search.max_order_s": "s",
    "search.scan_orders": "count",
    "search.scan_nodes": "count",
    "search.scan_nodes_per_s": "1/s",
    "search.enumerate_s": "s",
    "search.enumerate_nodes": "count",
    "search.enumerate_nodes_per_s": "1/s",
    "search.witnesses": "count",
    "search.split_s": "s",
    "search.tasks": "count",
    "search.task_max_share": "ratio",
    "search.speedup_2w": "ratio",
    "search.self_s": "s",
    "satgen.encode_s": "s",
    "satgen.clauses": "count",
    "satgen.to_dimacs_s": "s",
    "satgen.dimacs_bytes": "bytes",
    "satgen.alloc_peak_mb": "MB",
    "satgen.parse_model_s": "s",
    "satgen.decode_s": "s",
    "satgen.self_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.process_overhead_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.unexplained_s": "s",
}
LAYERS = ("core", "construct", "structure", "search", "satgen", "cli")


# ---------------------------------------------------------------------------
# Reference partitions, built here independently of gskit so that generated
# inputs and expected outputs do not trust the program under test.

CATALOGUE = {
    ("strong", 0): "1221",  # B2: even r
    ("strong", 1): "122131221",  # B3A: odd r
    ("weak", 0): "11212221",  # C2: even r
    ("weak", 1): "12121312131313121",  # C3: odd r
}


def reference_maximal(r: int, kind: str) -> list[int]:
    """Maximal partition for r >= 2 colours: catalogue base plus five-folds."""
    colors = [int(ch) for ch in CATALOGUE[(kind, r % 2)]]
    for _ in range((r - 2) // 2):
        colors = [
            1 if x % 5 in (1, 4) else 2 if x % 5 in (2, 3) else colors[x // 5 - 1] + 2
            for x in range(1, 5 * len(colors) + 5)
        ]
    return colors


def render(colors: list[int], r: int, kind: str) -> bytes:
    """The bytes gskit prints for a colouring: compact up to 9 colours."""
    if r <= 9:
        return ("".join(map(str, colors)) + "\n").encode()
    head = f"gspartition v1 kind={kind} r={r} n={len(colors)}\n"
    return (head + " ".join(map(str, colors)) + "\n").encode()


def first_witness_at(colors: list[int], c: int, strong: bool):
    """First bad pair a + b = c, a ascending, in the verifier's scan order."""
    cc = colors[c - 1]
    for a in range(1, c // 2 + 1):
        b = c - a
        ca, cb = colors[a - 1], colors[b - 1]
        if ca == cb == cc and (strong or a != b):
            return "monochromatic", (a, b, c)
        if ca != cb and ca != cc and cb != cc:
            return "rainbow", (a, b, c)
    return None


def mutants(base: list[int], r: int, count: int, rng: random.Random):
    """Single-position recolourings of a valid partition, one per stratum.

    Position i sits near (2i+1)/(2*count) of the order with a small seeded
    jitter, so every seed stops the scans at similar depths and costs the
    same work.  The prefix below the position is untouched, so the first
    witness has c equal to the position whenever that row breaks; rows
    that do not break are redrawn.
    """
    n = len(base)
    for i in range(count):
        centre = n * (2 * i + 1) / (2 * count)
        while True:
            pos = max(2, min(n, round(centre + rng.uniform(-1, 1) * n / (8 * count))))
            color = rng.choice([k for k in range(1, r + 1) if k != base[pos - 1]])
            colors = base.copy()
            colors[pos - 1] = color
            witness = first_witness_at(colors, pos, strong=True)
            if witness is not None:
                yield pos, colors, witness
                break


# ---------------------------------------------------------------------------
# Commands and output checks.  A check returns None or an error message.

Check = Callable[[Path, dict], Optional[str]]


@dataclass
class Cmd:
    """One CLI invocation; `stdin` is a file or "@label" of an earlier stdout."""

    label: str
    args: list
    check: Check
    stdin: Optional[str] = None
    code: int = 0


def sha256_of(path: Path) -> tuple:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


def digest(sha: str, size: int) -> Check:
    def check(out: Path, outputs: dict):
        got = sha256_of(out)
        if got != (sha, size):
            return f"stdout {got[0][:12]}/{got[1]} B, pinned {sha[:12]}/{size} B"
        return None
    return check


def text(expected) -> Check:
    data = expected if isinstance(expected, bytes) else expected.encode()
    return digest(hashlib.sha256(data).hexdigest(), len(data))


def pinned(key: str) -> Check:
    pin = PINS[key]
    return text(pin) if isinstance(pin, str) else digest(*pin)


def same_as(label: str, then: Check) -> Check:
    def check(out: Path, outputs: dict):
        if sha256_of(out) != sha256_of(outputs[label]):
            return f"stdout differs from that of {label!r}"
        return then(out, outputs)
    return check


_WITNESS = re.compile(r"(monochromatic|rainbow) \((\d+), (\d+), (\d+)\)\n")


def mutant_witness(colors: list, pos: int, expected: tuple) -> Check:
    """The witness must hold on the mutated colouring alone and stop at `pos`."""
    def check(out: Path, outputs: dict):
        m = _WITNESS.fullmatch(out.read_text())
        if m is None:
            return "stdout is not one witness line"
        category = m.group(1)
        a, b, c = (int(g) for g in m.groups()[1:])
        if a + b != c or not 1 <= a <= b or c > len(colors):
            return f"{(a, b, c)} is not a sum triple a + b = c with a <= b"
        ca, cb, cc = colors[a - 1], colors[b - 1], colors[c - 1]
        if category == "monochromatic" and not ca == cb == cc:
            return f"{(a, b, c)} is not monochromatic"
        if category == "rainbow" and len({ca, cb, cc}) != 3:
            return f"{(a, b, c)} is not rainbow"
        if c != pos:
            return f"witness stops at c={c}, mutated position is {pos}"
        if (category, (a, b, c)) != expected:
            return f"witness {category} {(a, b, c)} is not the first, {expected}"
        return None
    return check


# Pinned outputs: literal text, or (sha256, bytes) of stdout.  The construct
# pins equal the sha256 of the reference renderings above, which
# bench/selftest.py checks.
PINS = {
    "table": "1\t2\n2\t5\n3\t10\n4\t25\n5\t50\n6\t125\n",
    "construct --maximal 10": ("2ed09a68dd02a4bd592f3f774b0dff5f83319f72084b006bc2999f46bac5046f", 6289),
    "construct --maximal 9 --kind weak": ("a179635e890522c499593f4844d0ffccb3633b093d4f3bf99b97d32514a9edab", 2250),
    "construct --maximal 14": ("e166f8f9b4d39dca46a99b9a69e5744d8babc6cbb064ffe9797708f31e19ea86", 156362),
    "decompose 14": "base=1221 tags=" + ",".join(["FiveFold"] * 6) + "\n",
    "search --kind strong --r 6 --max-order": "m_max 124 confirmed (streak 5)\n",
    "search --kind weak --r 5 --max-order": "m_max 89 confirmed (streak 5)\n",
    "search --kind weak --r 8 --n 500 --enumerate --json":
        ("11bf4226233152a156a6630326485147bb3558b8f0fabd4ed3e7dae670af2e6f", 38389),
    "cnf encode --n 124 --r 6 --symmetry":
        ("b06ad7e2572a048391cb8bd92b895b304014659edfe24bca7adb0d6122b6ab5b", 8011396),
    # Smoke sizes (bench/selftest.py).
    "construct --maximal 5": ("b0078614b9519844e940320dfbb81a29e429f573373319bf6e0285490b5db67c", 50),
    "construct --maximal 4 --kind weak": ("77e87f14c7891a40a7c2ff2a300a9b7e0f7062e633ea276c37cbd4f8ba9451f9", 45),
    "construct --maximal 8": ("a1c6b6d62ce76373ebaaad17b0196cb73c9be400743dd2c6af9269c7dccdf44d", 625),
    "decompose 8": "base=1221 tags=FiveFold,FiveFold,FiveFold\n",
    "search --kind strong --r 4 --max-order": "m_max 24 confirmed (streak 5)\n",
    "search --kind weak --r 3 --max-order": "m_max 17 confirmed (streak 5)\n",
    "search --kind weak --r 5 --n 89 --enumerate --json":
        ("aa76dc0c38289d5ab86b36d682a5ca5aa25ec5e9ccc3eb3a18eaf9ece65c048d", 269),
    "cnf encode --n 9 --r 3 --symmetry": ("a1cd363c88c1b0286186e72e4ba69a49035c180e75c29aad8a34b7466c4d1b49", 2765),
}


# ---------------------------------------------------------------------------
# Workloads.  Each workload function writes its generated inputs into `work` and
# returns the cycle's commands.


@dataclass(frozen=True)
class Sizes:
    verify_r: int  # strong maximal partition: full scan, then mutants of it
    verify_weak_r: int  # weak maximal partition: full scan
    mutants: int
    big_r: int  # construct | decompose leg
    max_order: tuple  # ((kind, r), ...)
    enumerate: tuple  # (kind, r, n)
    cnf_r: int  # strong, symmetry breaking, at the maximal order for r


SIZES = {
    "full": Sizes(10, 9, 3, 14, (("strong", 6), ("weak", 5)), ("weak", 8, 500), 6),
    "smoke": Sizes(5, 4, 3, 8, (("strong", 4), ("weak", 3)), ("weak", 5, 89), 3),
}


def verify_workload(seed: int, sz: Sizes, work: Path) -> list:
    cmds = []
    for r, kind in ((sz.verify_r, "strong"), (sz.verify_weak_r, "weak")):
        key = f"construct --maximal {r}" + (" --kind weak" if kind == "weak" else "")
        cmds.append(Cmd(key, key.split(), pinned(key)))
        cmds.append(Cmd(f"verify {key}", ["verify", "-", "--kind", kind], text("ok\n"), "@" + key))
    r = sz.verify_r
    rng = random.Random(seed)
    for i, (pos, colors, witness) in enumerate(mutants(reference_maximal(r, "strong"), r, sz.mutants, rng)):
        path = work / f"mutant{i}.txt"
        path.write_bytes(render(colors, r, "strong"))
        check = mutant_witness(colors, pos, witness)
        cmds.append(Cmd(f"verify mutant@{pos}", ["verify", "-", "--kind", "strong"], check, str(path), 1))
    key = f"construct --maximal {sz.big_r}"
    cmds.append(Cmd(key, key.split(), pinned(key)))
    cmds.append(Cmd(f"decompose {sz.big_r}", ["decompose", "-"], pinned(f"decompose {sz.big_r}"), "@" + key))
    return cmds


def max_order_workload(seed: int, sz: Sizes, work: Path) -> list:
    keys = [f"search --kind {kind} --r {r} --max-order" for kind, r in sz.max_order]
    return [Cmd(key, key.split(), pinned(key)) for key in keys]


def enumerate_workload(seed: int, sz: Sizes, work: Path) -> list:
    kind, r, n = sz.enumerate
    key = f"search --kind {kind} --r {r} --n {n} --enumerate --json"
    one = Cmd(key + " --workers 1", (key + " --workers 1").split(), pinned(key))
    two = Cmd(key + " --workers 2", (key + " --workers 2").split(), same_as(one.label, pinned(key)))
    return [one, two]


def cnf_workload(seed: int, sz: Sizes, work: Path) -> list:
    r = sz.cnf_r
    colors = reference_maximal(r, "strong")
    n = len(colors)
    lits = [(v - 1) * r + i if colors[v - 1] == i else -((v - 1) * r + i)
            for v in range(1, n + 1) for i in range(1, r + 1)]
    random.Random(seed).shuffle(lits)
    rows = ["v " + " ".join(map(str, lits[k:k + 12])) for k in range(0, len(lits), 12)]
    model = work / "model.txt"
    model.write_text("s SATISFIABLE\n" + "\n".join(rows) + "\nv 0\n")
    key = f"cnf encode --n {n} --r {r} --symmetry"
    decode = ["cnf", "decode", "-", "--n", str(n), "--r", str(r)]
    return [
        Cmd(key, key.split(), pinned(key)),
        Cmd("cnf decode", decode, text(render(colors, r, "strong")), str(model)),
    ]


WORKLOADS = {
    "verify": verify_workload,
    "max-order": max_order_workload,
    "enumerate": enumerate_workload,
    "cnf": cnf_workload,
}

SETUP_CMD = Cmd("table", ["table"], pinned("table"))
REFERENCE_CMD = Cmd("reference", [], text(""))


# ---------------------------------------------------------------------------
# Running commands: one child at a time, resources from wait4 on that child.


@dataclass
class Outcome:
    label: str
    wall: float
    cpu: float
    rss_mb: float
    stdout_bytes: int
    error: Optional[str]
    spans: Optional[list] = None


class Runner:
    """Spawns commands with per-child accounting and a hard time limit.

    Commands start from bench/launch.py, a small long-lived process, so
    that a child's peak RSS does not inherit this process's size.  os.wait4
    there gives each command's own user+system CPU and peak RSS, including
    pool workers it reaped; RUSAGE_CHILDREN would instead keep the
    high-water mark of every child so far.  Close the runner to stop it.
    """

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + HARD_LIMIT_S
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("GSKIT_WORKERS", None)
        self.launcher = subprocess.Popen([sys.executable, str(BENCH / "launch.py")], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def close(self, interrupted: bool = False):
        if interrupted:
            self.launcher.terminate()  # kills the running command too
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def argv(self, cmd: Cmd, spans: Optional[Path]) -> list:
        if cmd is REFERENCE_CMD:
            return [sys.executable, "-c", REFERENCE]
        if spans is None:
            return [sys.executable, "-m", "gskit.cli", *cmd.args]
        return [sys.executable, str(BENCH / "layers.py"), "trace", str(spans), "--", *cmd.args]

    def spawn(self, argv: list, stdin: Optional[str], out: Path, err: Path):
        """Run argv to completion: (wall, cpu, peak RSS MB, exit code or None
        if killed at the time limit), or None if no time is left."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return None
        request = [argv, stdin or os.devnull, str(out), str(err), remaining]
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        wall, user, system, rss_kib, status = json.loads(self.launcher.stdout.readline())
        killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        return wall, user + system, rss_kib / 1024, None if killed else os.waitstatus_to_exitcode(status)

    def run(self, cmd: Cmd, i: int, outputs: dict, traced: bool = False) -> Outcome:
        out, err = self.work / f"{i}.out", self.work / f"{i}.err"
        spans = self.work / f"{i}.spans" if traced else None
        stdin = str(outputs[cmd.stdin[1:]]) if cmd.stdin and cmd.stdin.startswith("@") else cmd.stdin
        spawned = self.spawn(self.argv(cmd, spans), stdin, out, err)
        outputs[cmd.label] = out
        if spawned is None:
            return Outcome(cmd.label, 0.0, 0.0, 0.0, 0, "not run: time limit")
        wall, cpu, rss_mb, code = spawned
        outcome = Outcome(cmd.label, wall, cpu, rss_mb, out.stat().st_size,
                          "killed at the time limit" if code is None else None)
        if traced and spans.is_file():
            outcome.spans = json.loads(spans.read_text())
        if outcome.error is None:
            outcome.error = judge(cmd, code, out, err, outputs)
        return outcome

    def tally(self, outcomes: list):
        for o in outcomes:
            self.attempted += 1
            if o.error is not None:
                self.failed += 1
                self.errors.append(f"{o.label}: {o.error}")


def judge(cmd: Cmd, code: int, out: Path, err: Path, outputs: dict) -> Optional[str]:
    """The output-correctness gate behind ok_ratio."""
    if TRACEBACK in err.read_bytes():
        return "traceback on stderr"
    if code != cmd.code:
        return f"exit code {code}, expected {cmd.code}"
    return cmd.check(out, outputs)


@dataclass
class Cycle:
    wall: float
    outcomes: list

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.outcomes)

    @property
    def rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


def run_cycle(runner: Runner, cmds: list, traced: bool = False) -> Cycle:
    """Run every command once, back to back, then check all outputs."""
    outputs: dict = {}
    outcomes = []
    t0 = time.perf_counter()
    for i, cmd in enumerate(cmds):
        outcomes.append(runner.run(cmd, i, outputs, traced))
    cycle = Cycle(time.perf_counter() - t0, outcomes)
    runner.tally(outcomes)
    return cycle


def run_alone(runner: Runner, cmd: Cmd) -> Outcome:
    """One gated run of a command outside the cycle."""
    outcome = runner.run(cmd, 0, {})
    runner.tally([outcome])
    return outcome


def keep_going(start: float, seconds: float, walls: list) -> bool:
    """Start another round only if a typical one still fits in the window."""
    if not walls:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def summary(values: list) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": values[0], "n": len(values)}


# ---------------------------------------------------------------------------
# Traced runs: spans from bench/layers.py turned into per-layer metrics.


def self_times(spans: list) -> dict:
    """Per-layer self time: span duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, parent, *_) in enumerate(spans):
        if name != "cli.import":
            out[name.split(".")[0]] += end - start - child[i]
    return out


def layer_metrics(cycle: Cycle) -> dict:
    """Per-layer metrics of one traced cycle, before probe results."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    total = {}  # span name -> summed duration
    counts = {}  # (span name, count key) -> summed count
    full = [0, 0.0]
    early = [0, 0.0]
    by_workers = {}
    explained = 0.0
    for o in cycle.outcomes:
        spans = o.spans or []
        for name, start, end, parent, run, cnt in spans:
            total[name] = total.get(name, 0.0) + end - start
            for key, value in (cnt or {}).items():
                counts[name, key] = counts.get((name, key), 0) + value
            if name == "core.check_partition":
                acc = full if cnt["ok"] else early
                acc[0] += cnt["pairs"]
                acc[1] += end - start
            if name == "search.run_search":
                acc = by_workers.setdefault(cnt["workers"], [0.0, 0, 0])
                acc[0] += end - start
                acc[1] += cnt["nodes"]
                acc[2] += cnt["witnesses"]
        for layer, value in self_times(spans).items():
            m[f"{layer}.self_s"] += value
        main = sum(end - start for name, start, end, *_ in spans if name == "cli.main")
        m["cli.process_overhead_s"] += o.wall - main
        m["cli.stdout_bytes"] += o.stdout_bytes
        explained += o.wall

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m["core.check_partition_s"] = total.get("core.check_partition", 0.0)
    m["core.check_pairs"] = full[0] + early[0]
    m["core.check_pairs_per_s"] = rate(full[0] + early[0], full[1] + early[1])
    m["core.check_full_pairs_per_s"] = rate(*full)
    m["core.check_early_pairs_per_s"] = rate(*early)
    m["core.parse_s"] = total.get("core.parse_coloring_with_kind", 0.0) + total.get("core.parse_coloring", 0.0)
    m["core.to_file_form_s"] = total.get("core.to_file_form", 0.0)
    m["construct.maximal_partition_s"] = total.get("construct.maximal_partition", 0.0)
    m["construct.entries_built"] = sum(v for (name, key), v in counts.items() if key == "entries")
    m["structure.decompose_full_s"] = total.get("structure.decompose_full", 0.0)
    m["structure.peels"] = counts.get(("structure.decompose_full", "peels"), 0)
    m["search.max_order_s"] = total.get("search.max_order", 0.0)
    if 1 in by_workers:
        seconds, nodes, witnesses = by_workers[1]
        m["search.enumerate_s"] = seconds
        m["search.enumerate_nodes"] = nodes
        m["search.enumerate_nodes_per_s"] = rate(nodes, seconds)
        m["search.witnesses"] = witnesses
        if 2 in by_workers:
            m["search.speedup_2w"] = rate(seconds, by_workers[2][0])
    m["satgen.encode_s"] = total.get("satgen.encode", 0.0)
    m["satgen.clauses"] = counts.get(("satgen.encode", "clauses"), 0)
    m["satgen.to_dimacs_s"] = total.get("satgen.to_dimacs", 0.0)
    m["satgen.dimacs_bytes"] = counts.get(("satgen.to_dimacs", "bytes"), 0)
    m["satgen.parse_model_s"] = total.get("satgen.parse_model", 0.0)
    m["satgen.decode_s"] = total.get("satgen.decode", 0.0)
    m["cli.import_s"] = total.get("cli.import", 0.0)
    m["cli.main_s"] = total.get("cli.main", 0.0)
    m["bench.traced_wall_s"] = cycle.wall
    # Self times sum to cli.main_s, so with the process overhead they cover
    # every command's wall time; what is left is the harness between commands.
    m["bench.unexplained_s"] = cycle.wall - explained
    return m


def probe(runner: Runner, workload: str, sz: Sizes) -> dict:
    """In-process layer measurements that the CLI path cannot show."""
    params = {"workload": workload, "max_order": sz.max_order, "enumerate": sz.enumerate, "cnf_r": sz.cnf_r}
    out, err = runner.work / "probe.out", runner.work / "probe.err"
    argv = [sys.executable, str(BENCH / "layers.py"), "probe", json.dumps(params)]
    spawned = runner.spawn(argv, None, out, err)
    code = spawned[3] if spawned else None
    error = None
    if code != 0 or TRACEBACK in err.read_bytes():
        error = f"probe exit code {code}: {err.read_text()[-300:]}"
    runner.tally([Outcome("probe", 0.0, 0.0, 0.0, 0, error)])
    return json.loads(out.read_text()) if error is None else {}


# ---------------------------------------------------------------------------
# Runs.


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> Optional[str]:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "clients": 1,
        "loop": "closed",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One run: generate inputs, then measure end-to-end metrics with
    tracing off, or per-layer metrics with tracing on."""
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    runner = Runner(work, started)
    interrupted = True
    try:
        sz = SIZES[size]
        cmds = WORKLOADS[workload](seed, sz, work)
        res = traced_run(runner, workload, cmds, sz, seed, seconds) if trace else untraced_run(runner, cmds, seconds)
        interrupted = False
        return res
    finally:
        runner.close(interrupted)
        shutil.rmtree(work, ignore_errors=True)


def result(runner: Runner, metrics: dict, stats: dict) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "stats": stats,
        "errors": runner.errors[:20],
    }


def untraced_run(runner: Runner, cmds: list, seconds: float) -> dict:
    run_alone(runner, SETUP_CMD)  # fills the bytecode cache; not a sample
    setup, reference, cycles, rounds = [], [], [], []
    start = time.perf_counter()
    while keep_going(start, seconds, rounds):
        t0 = time.perf_counter()
        reference.append(run_alone(runner, REFERENCE_CMD))
        setup.append(run_alone(runner, SETUP_CMD).wall)
        cycles.append(run_cycle(runner, cmds))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() > runner.deadline:
            break
    samples = {
        "wall_s": [c.wall for c in cycles],
        "setup_s": setup,
        "cpu_s": [c.cpu for c in cycles],
        "peak_rss_mb": [c.rss_mb for c in cycles],
        "ok_ratio": [(runner.attempted - runner.failed) / runner.attempted],
        "reference_s": [o.wall for o in reference],
    }
    stats = {name: summary(values) for name, values in samples.items()}
    values = {name: stats[name]["median"] for name in END_TO_END}
    # CPU time is scaled by the reference's CPU time: when the host holds
    # the vCPUs back, wall times grow but CPU times do not.
    for name, ref in (("wall_s", "wall"), ("setup_s", "wall"), ("cpu_s", "cpu")):
        paired = zip(samples[name], (getattr(o, ref) for o in reference))
        values[name] = REFERENCE_S * statistics.median(t / r for t, r in paired)
    values["peak_rss_mb"] = max(samples["peak_rss_mb"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return result(runner, metrics, stats)


def traced_run(runner: Runner, workload: str, cmds: list, sz: Sizes, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    extra = probe(runner, workload, sz) if workload != "verify" else {}
    plain, traced = [], []
    while keep_going(start, seconds, [a.wall + b.wall for a, b in zip(plain, traced)]):
        plain.append(run_cycle(runner, cmds))
        traced.append(run_cycle(runner, cmds, traced=True))
        if time.perf_counter() > runner.deadline:
            break
    per_cycle = [layer_metrics(c) for c in traced]
    for m, c in zip(per_cycle, plain):
        m["bench.untraced_wall_s"] = c.wall
        m["bench.trace_overhead_s"] = m["bench.traced_wall_s"] - c.wall
        m.update(extra)
    stats = {name: summary([m[name] for m in per_cycle]) for name in PER_LAYER}
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in PER_LAYER.items()}
    spans = [{"cycle": k, "command": o.label, "wall": o.wall, "spans": o.spans}
             for k, c in enumerate(traced) for o in c.outcomes]
    (OUT / f"spans_{workload}_seed{seed}.json").write_text(json.dumps(spans))
    return result(runner, metrics, stats)


def print_stats(workload: str, res: dict, units: dict):
    """One line per metric: its value, then the summary of its raw samples
    (for a scaled time, before scaling), and the same for the reference."""
    for name, s in res["stats"].items():
        value, unit = (res["metrics"][name]["value"], units[name]) if name in units else (s["median"], "s")
        print(f"{workload:<10} {name:<30} {value:>12.6g} {unit:<10} "
              f"median {s['median']:<11.6g} q1 {s['q1']:<11.6g} q3 {s['q3']:<11.6g} "
              f"min {s['min']:<11.6g} n={s['n']}")
    for error in res["errors"]:
        print(f"{workload:<10} FAILED {error}")


def run_all(seed: int, seconds: int):
    record = run_record("all", seed, seconds, trace=True)
    results = {}
    for workload in WORKLOADS:
        plain = measure(workload, seed, seconds, trace=False)
        print_stats(workload, plain, END_TO_END)
        traced = measure(workload, seed, seconds, trace=True)
        print_stats(workload, traced, PER_LAYER)
        results[workload] = {"end_to_end": plain, "per_layer": traced}
    path = BENCH / "results" / f"BENCH_{(record['commit'] or 'local')[:12]}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"record": record, "results": results}, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return all(r[mode]["correct"] for r in results.values() for mode in r)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "gskit" / "cli.py").is_file():
        print(f"error: no gskit sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return 0 if run_all(args.seed, args.seconds) else 1
    if args.workload is None:
        parser.error("--workload or --all is required")
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record " + json.dumps(run_record(args.workload, args.seed, args.seconds, bool(args.trace))))
    print_stats(args.workload, res, PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({key: res[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
