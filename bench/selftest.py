#!/usr/bin/env python3
"""Self-tests of the benchmark harness, at smoke sizes (about a minute):

    python3 bench/selftest.py

1. The reference partitions in bench/run.py hash to the pinned construct
   outputs, so the pins rest on an independent construction.
2. Every workload passes the gate at smoke size, untraced and traced, and
   reports exactly the metrics BENCHMARK.json declares.
3. A wrong pinned digest, a wrong exit code, a wrong mutant witness and an
   injected traceback each count as a failure and lower ok_ratio, and a
   run that fails the gate exits non-zero.
4. Without the gskit sources (a directory holding only BENCHMARK.json and
   bench/) a run exits non-zero and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

FAILURES: list = []


def expect(cond: bool, message: str):
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        FAILURES.append(message)


def test_reference_pins():
    for r, kind in ((10, "strong"), (9, "weak"), (14, "strong"), (5, "strong"), (4, "weak"), (8, "strong")):
        key = f"construct --maximal {r}" + (" --kind weak" if kind == "weak" else "")
        data = run.render(run.reference_maximal(r, kind), r, kind)
        expect((hashlib.sha256(data).hexdigest(), len(data)) == run.PINS[key],
               f"reference rendering matches pin {key!r}")


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")


def test_smoke():
    for workload in run.WORKLOADS:
        for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            res = run.measure(workload, seed=7, seconds=1, trace=trace, size="smoke")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{workload} trace={int(trace)} passes the gate {res['errors']}")
            expect(set(res["metrics"]) == set(names), f"{workload} trace={int(trace)} reports every metric")
    for seed in range(1, 30):
        full = run.SIZES["full"]
        base = run.reference_maximal(full.verify_r, "strong")
        got = list(run.mutants(base, full.verify_r, full.mutants, run.random.Random(seed)))
        if any(w[1][2] != pos for pos, _, w in got):
            expect(False, f"seed {seed}: full-size mutants stop at their position")
            return
    expect(True, "full-size mutants of seeds 1..29 stop at their position")


def gate_run(runner, cmds) -> dict:
    """Set-up plus one cycle, gated; closes the runner."""
    try:
        return run.untraced_run(runner, cmds, 0)
    finally:
        runner.close()


class Injecting(run.Runner):
    """Runs a stand-in program in place of the command labelled `target`."""

    def __init__(self, work, target, code):
        super().__init__(work, time.perf_counter())
        self.target, self.code = target, code

    def argv(self, cmd, spans):
        if cmd.label == self.target:
            return [sys.executable, "-c", self.code]
        return super().argv(cmd, spans)


def test_gate_catches_faults():
    sz = run.SIZES["smoke"]
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        cmds = run.max_order_workload(1, sz, work)
        cmds[0].check = run.digest("0" * 64, 30)
        res = gate_run(run.Runner(work, time.perf_counter()), cmds)
        expect(res["failed"] == 1 and "pinned" in res["errors"][0], "wrong pinned digest is a failure")
        expect(res["metrics"]["ok_ratio"]["value"] < 1 and not res["correct"], "... and lowers ok_ratio")

        cmds = run.max_order_workload(1, sz, work)
        cmds[1].code = 3
        res = gate_run(run.Runner(work, time.perf_counter()), cmds)
        expect(res["failed"] == 1 and "exit code" in res["errors"][0], "wrong exit code is a failure")

        cmds = run.max_order_workload(1, sz, work)
        fake = ("import sys; sys.stdout.write(" + repr(run.PINS[cmds[1].label])
                + "); sys.stderr.write('Traceback (most recent call last):\\n  injected\\n')")
        res = gate_run(Injecting(work, cmds[1].label, fake), cmds)
        expect(res["failed"] == 1 and "traceback" in res["errors"][0],
               "injected traceback with right stdout and exit 0 is a failure")
        expect(res["metrics"]["ok_ratio"]["value"] < 1, "... and lowers ok_ratio")

        cmds = run.verify_workload(1, sz, work)
        mutant = next(c for c in cmds if c.label.startswith("verify mutant"))
        fake = "import sys; print('monochromatic (1, 1, 2)'); sys.exit(1)"
        res = gate_run(Injecting(work, mutant.label, fake), cmds)
        expect(res["failed"] == 1 and "monochromatic" in res["errors"][0], "wrong mutant witness is a failure")

        cmds = run.enumerate_workload(1, sz, work)
        fake = "print('{}')"
        res = gate_run(Injecting(work, cmds[1].label, fake), cmds)
        expect(res["failed"] == 1 and "differs" in res["errors"][0],
               "enumerate outputs differing across worker counts is a failure")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_failed_gate_exit_code():
    saved = run.SETUP_CMD, run.SIZES["full"]
    run.SETUP_CMD = run.Cmd("table", ["table"], run.text("wrong\n"))
    run.SIZES["full"] = run.SIZES["smoke"]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "max-order", "--seed", "1", "--seconds", "1"])
    finally:
        run.SETUP_CMD, run.SIZES["full"] = saved
    last = json.loads(out.getvalue().splitlines()[-1])
    expect(code != 0 and not last["correct"] and last["failed"] > 0,
           "a run that fails the gate prints its result and exits non-zero")


def test_without_sources():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without gskit sources a run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    test_reference_pins()
    test_benchmark_json()
    test_gate_catches_faults()
    test_failed_gate_exit_code()
    test_without_sources()
    test_smoke()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
