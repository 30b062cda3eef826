"""`verify` prints the verifier's violation stream as it scans: the same
bytes as the materialised verdict, in memory that does not grow with the
number of violations, and a closed reader stops the scan."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tracemalloc
from itertools import islice

import pytest

from gskit.cli import main
from gskit.core import Kind, Verdict, iter_violations, parse_coloring_with_kind


def _random_two_coloring(n: int) -> str:
    rng = random.Random(1)
    return "".join(str(rng.randint(1, 2)) for _ in range(n)) + "\n"


def _materialised(text: str, kind: Kind | None, all_witnesses: bool, as_json: bool):
    """Exit code and stdout of `verify`, built from the whole verdict."""
    coloring, declared = parse_coloring_with_kind(text)
    kind = kind or declared or Kind.STRONG
    verdict = Verdict(tuple(islice(iter_violations(coloring, kind), None if all_witnesses else 1)))
    if as_json:
        doc = {
            "kind": kind.value,
            "r": coloring.r,
            "n": coloring.n,
            "ok": verdict.ok,
            "violations": [
                {
                    "category": v.category.value,
                    "triple": list(v.triple) if v.triple is not None else None,
                    "color": v.color,
                    "message": v.describe(),
                }
                for v in verdict.violations
            ],
        }
        out = json.dumps(doc) + "\n"
    else:
        out = "".join(v.describe() + "\n" for v in verdict.violations) or "ok\n"
    return (0 if verdict.ok else 1), out


_CASES = [
    "1221",  # valid
    "122131221412214122131221\n",  # valid, strong r=4 maximal
    "gspartition v1 kind=weak r=3 n=17\n1 2 1 2 1 3 1 2 1 3 1 3 1 3 1 2 1\n",  # valid, weak
    "gspartition v1 kind=strong r=2 n=4\n1 2 9 1\n",  # a color above r
    "gspartition v1 kind=strong r=3 n=6\n1 4 7 7 4 1\n",  # above r, several sums
    "gspartition v1 kind=strong r=7 n=8\n1 2 2 1 1 2 2 1\n",  # unused colors
    "gspartition v1 kind=weak r=9 n=9\n1 2 3 12 5 1 2 3 11\n",  # everything at once
    "123",  # one rainbow
    "1" * 80,  # more violations than one printed chunk
    _random_two_coloring(60),
]


@pytest.mark.parametrize("text", _CASES)
@pytest.mark.parametrize("kind", [None, Kind.STRONG, Kind.WEAK])
@pytest.mark.parametrize("all_witnesses", [False, True])
@pytest.mark.parametrize("as_json", [False, True])
def test_verify_prints_the_materialised_verdict(
    capsys, monkeypatch, text, kind, all_witnesses, as_json
):
    argv = ["verify", "-"] + (["--kind", kind.value] if kind else [])
    argv += ["--all-witnesses"] * all_witnesses + ["--json"] * as_json
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(argv)
    assert (code, *capsys.readouterr()) == (
        *_materialised(text, kind, all_witnesses, as_json), ""
    )


class _Sink:
    """A text writer that keeps only the sha256 of what it gets."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str):
        self.digest.update(text.encode())

    def flush(self):
        pass


@pytest.mark.parametrize("as_json", [False, True])
def test_all_witnesses_memory_stays_flat(tmp_path, as_json):
    # 89,829 monochromatic triples: materialised before printing, they
    # peaked at 15.2 MB (65.8 MB with --json); plain verify takes 0.9 MB.
    path = tmp_path / "random.txt"
    text = _random_two_coloring(1200)
    path.write_text(text)
    want = hashlib.sha256(_materialised(text, None, True, as_json)[1].encode())
    sink = _Sink()
    argv = ["verify", str(path), "--all-witnesses"] + ["--json"] * as_json
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == want.hexdigest()
    assert peak < 2 * 2**20


def test_closed_reader_stops_the_scan(tmp_path):
    # `gskit verify FILE --all-witnesses | head -n 1`: about 2.5 MB of
    # witnesses cannot fit in the pipe, so the writer meets the closed end.
    path = tmp_path / "random.txt"
    path.write_text(_random_two_coloring(1200))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gskit.cli", "verify", str(path), "--all-witnesses"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "monochromatic (1, 1, 2)\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == ""
    proc.stderr.close()


_RSS_PARENT = """\
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "gskit.cli", *sys.argv[1:]],
               stdout=subprocess.DEVNULL, check=False)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _child_peak_kb(argv) -> int:
    # A small parent spawns the command, so its peak RSS is the command's own.
    proc = subprocess.run([sys.executable, "-c", _RSS_PARENT, *argv],
                          capture_output=True, text=True, check=True, timeout=600)
    return int(proc.stdout)


@pytest.mark.slow
def test_all_witnesses_rss_matches_plain_verify_at_3000(tmp_path):
    # 562,512 triples: 121 MB (458 MB with --json) when materialised,
    # against 15 MB for plain verify.
    path = tmp_path / "random.txt"
    path.write_text(_random_two_coloring(3000))
    plain = _child_peak_kb(["verify", str(path)])
    for extra in ([], ["--json"]):
        assert _child_peak_kb(["verify", str(path), "--all-witnesses", *extra]) < plain + 2048
