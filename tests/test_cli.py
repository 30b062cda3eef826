"""End-to-end command surface: flags, exit codes, and output shapes."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gskit import cli
from gskit.cli import main
from gskit.cli_construct import MAX_CONSTRUCT_ORDER
from gskit.cli_search import MAX_SEARCH_R
from gskit.construct import PatternError, five_fold, maximal_partition, two_fold
from gskit.core import Kind, ParseError, parse_coloring, parse_coloring_with_kind
from gskit.satgen import clause_count, encode, to_dimacs
from gskit.search import SearchConfig, run_search
from gskit.values import MAX_CNF_CLAUSES, MAX_GS_R, UsageError, WorkerError, gs_number


def invoke(argv, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def test_verify_ok(capsys):
    assert invoke(["verify", "1221", "--kind", "strong"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_verify_violation(capsys):
    assert invoke(["verify", "123", "--kind", "weak"]) == 1
    assert capsys.readouterr().out == "rainbow (1, 2, 3)\n"


def test_verify_bad_input(capsys):
    assert invoke(["verify", "1x1", "--kind", "weak"]) == 2
    assert "position 2" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("1٢٢1", "invalid character '٢' at position 2"),  # Arabic-Indic two
    ("12²1", "invalid character '²' at position 3"),  # superscript two
    ("gspartition v1 kind=weak r=2 n=4\n1 ٢ ٢ 1\n",
     "entry 2 is not a decimal number: '٢'"),
    ("gspartition v1 kind=weak r=2 n=4\n1 2 ² 1\n",
     "entry 3 is not a decimal number: '²'"),
])
def test_verify_accepts_ascii_digits_only(capsys, monkeypatch, text, message):
    # Other Unicode digits are refused at their position, in both forms.
    assert invoke(["verify", "-"], monkeypatch, text) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_verify_names_an_entry_too_long_to_convert(capsys, monkeypatch):
    # Past int()'s digit limit the entry is named, not Python's own text.
    text = "gspartition v1 kind=weak r=2 n=3\n1 " + "2" * 5000 + " 1\n"
    assert invoke(["verify", "-"], monkeypatch, text) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: entry 2 has too many digits\n"


def test_verify_all_witnesses(capsys):
    assert invoke(["verify", "111", "--kind", "strong", "--all-witnesses"]) == 1
    out = capsys.readouterr().out
    assert out == "monochromatic (1, 1, 2)\nmonochromatic (1, 2, 3)\n"


def test_verify_json_field_order(capsys):
    assert invoke(["verify", "11", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["kind", "r", "n", "ok", "violations"]
    assert doc["kind"] == "strong"
    assert doc["violations"][0]["category"] == "MonochromaticSum"
    assert doc["violations"][0]["triple"] == [1, 1, 2]


def test_verify_reads_file_and_declared_kind(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("gspartition v1 kind=weak r=1 n=2\n1 1\n")
    assert invoke(["verify", str(path)]) == 0
    capsys.readouterr()
    # An explicit flag beats the declared kind.
    assert invoke(["verify", str(path), "--kind", "strong"]) == 1


def test_verify_reads_stdin(monkeypatch, capsys):
    assert invoke(["verify", "-"], monkeypatch, "1221\n") == 0
    assert capsys.readouterr().out == "ok\n"


def test_verify_long_inline_partition(capsys):
    assert invoke(["construct", "--maximal", "8"]) == 0
    text = capsys.readouterr().out.strip()
    assert len(text) == 624
    assert invoke(["verify", text]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_declared_r_above_n_is_an_input_error(capsys, monkeypatch):
    # 45 bytes that would otherwise cost O(r) work and one witness per
    # unused color.
    text = "gspartition v1 kind=strong r=3000000 n=4\n1 2 2 1\n"
    for argv in (["verify", "-", "--all-witnesses", "--json"], ["decompose", "-"]):
        assert invoke(argv, monkeypatch, text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: declared r=3000000 exceeds n=4; "
            "a partition of [1, n] has at most n colors\n"
        )


def test_table_values(capsys):
    assert invoke(["table", "--kind", "strong", "--max-r", "6"]) == 0
    out = capsys.readouterr().out
    assert [line.split("\t") for line in out.splitlines()] == [
        ["1", "2"], ["2", "5"], ["3", "10"], ["4", "25"], ["5", "50"], ["6", "125"],
    ]
    assert invoke(["table", "--kind", "weak", "--max-r", "1"]) == 0
    assert capsys.readouterr().out == "1\t3\n"


def test_table_json_and_errors(capsys):
    assert invoke(["table", "--kind", "weak", "--max-r", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "weak"
    assert [row["value"] for row in doc["rows"]] == [3, 9, 18, 45, 90, 225]
    assert invoke(["table", "--max-r", "0"]) == 2


def test_table_refuses_max_r_above_cap(capsys):
    # GS(12,303) is the last value with at most 4,300 digits, the most
    # Python converts to text by default, so every row that printed before
    # the cap still prints.
    for kind in Kind:
        assert len(str(gs_number(MAX_GS_R, kind).value)) == 4300
        with pytest.raises(ValueError, match="4300 digits"):
            str(gs_number(MAX_GS_R + 1, kind).value)
    # Refused before any row is printed, text and JSON alike.
    for argv, max_r in ((["--max-r", "30000"], 30000),
                        (["--max-r", "12304", "--json"], 12304),
                        (["--kind", "weak", "--max-r", "100000000"], 100000000)):
        assert invoke(["table", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-r {max_r} is above the cap of 12303\n"


def test_construct_refuses_huge_maximal_before_computing(capsys, monkeypatch):
    # GS(R) is never computed past the cap: 5^(R/2) at R = 10^7 takes seconds.
    monkeypatch.setattr("gskit.cli_construct.gs_number", None)
    for r in ("12304", "100000", "10000000"):
        assert invoke(["construct", "--maximal", r, "--kind", "weak"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --maximal {r} would build an order of over 4300 digits, "
            f"above the cap of {MAX_CONSTRUCT_ORDER}\n"
        )
    monkeypatch.undo()
    # Up to the cap the refusal still names the order.
    assert invoke(["construct", "--maximal", str(MAX_GS_R)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --maximal {MAX_GS_R} would build order ")
    assert len(err.split()[6].rstrip(",")) == 4300


def test_construct_base_apply(capsys):
    assert invoke(["construct", "--base", "B2", "--apply", "2"]) == 0
    assert capsys.readouterr().out == "121313121\n"
    assert invoke(["construct", "--base", "C2", "--apply", "2"]) == 0
    assert capsys.readouterr().out == "12121312131313121\n"


def test_construct_maximal(capsys):
    assert invoke(["construct", "--maximal", "4", "--kind", "strong"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "122131221412214122131221"
    assert len(out) == 24


def test_construct_chain_matches_library(capsys):
    assert invoke(["construct", "--base", "B1", "--apply", "5", "--apply", "2"]) == 0
    out = capsys.readouterr().out.strip()
    expected = two_fold(five_fold(parse_coloring("1")))
    assert out == str(expected)


def test_construct_inverse_roundtrip(capsys):
    assert invoke(["construct", "--from", "121313121", "--apply", "i2"]) == 0
    assert capsys.readouterr().out == "1221\n"


def test_construct_inverse_pattern_failure(capsys):
    assert invoke(["construct", "--from", "121", "--apply", "i5"]) == 1
    err = capsys.readouterr().err
    assert "structure error" in err and "4 mod 5" in err


@pytest.mark.parametrize(
    "start, step, message",
    [
        ("1221", "i2", "order 4 is even; a two-fold image has odd order"),
        ("12221", "i2", "position 3 is odd but has color 2, expected 1"),
        ("111", "i2", "position 2 is even but has color 1"),
        ("1", "i2", "a two-fold image has at least 2 colors and order >= 3"),
        ("121", "i5", "order 3 is not congruent 4 mod 5, so not a five-fold image"),
        ("2221", "i5", "position 1 has color 2, expected 1 (residue 1 mod 5)"),
        ("1121", "i5", "position 2 has color 1, expected 2 (residue 2 mod 5)"),
        ("122111221", "i5", "position 5 is a multiple of 5 but has color 1"),
        ("1221", "i5", "a five-fold image has at least 3 colors and order >= 9"),
    ],
)
def test_construct_inverse_pattern_messages(capsys, start, step, message):
    # One case per raise site in inverse_two_fold and inverse_five_fold.
    assert invoke(["construct", "--from", start, "--apply", step]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"structure error: {message}\n"


def test_construct_usage_errors(capsys):
    assert invoke(["construct", "--base", "B9"]) == 2
    capsys.readouterr()
    assert invoke(["construct", "--base", "B2", "--kind", "weak"]) == 2
    assert "catalogue" in capsys.readouterr().err


def test_construct_refuses_orders_above_cap(capsys, monkeypatch):
    # The cap covers the maximal partitions up to strong r=18, weak r=17.
    assert gs_number(18, Kind.STRONG).value - 1 <= MAX_CONSTRUCT_ORDER
    assert gs_number(17, Kind.WEAK).value - 1 <= MAX_CONSTRUCT_ORDER
    # Refused from the closed form, before anything is built.
    monkeypatch.setattr("gskit.cli_construct.maximal_partition", None)
    assert invoke(["construct", "--maximal", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --maximal 30 would build order 30517578124, "
        f"above the cap of {MAX_CONSTRUCT_ORDER}\n"
    )
    # The whole chain is sized before its first step runs: B1 -> 9, 49, ...,
    # and the tenth step would reach 5^11 - 1.
    assert invoke(["construct", "--base", "B1"] + ["--apply", "5"] * 10) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--apply 5 would build order 3906249" in captured.err
    # Orders up to the cap pass, and inverse steps shrink the order the
    # check follows: B1 -> 9 -> 49 -> 9 -> 49, never 249.
    monkeypatch.setattr("gskit.cli_construct.MAX_CONSTRUCT_ORDER", 49)
    chain = ["--apply", "5", "--apply", "5", "--apply", "i5", "--apply", "5"]
    assert invoke(["construct", "--base", "B1"] + chain) == 0
    assert len(capsys.readouterr().out) == 50
    assert invoke(["construct", "--base", "B1"] + ["--apply", "5"] * 3) == 2
    assert "order 249, above the cap of 49" in capsys.readouterr().err


def test_construct_json(capsys):
    assert invoke(["construct", "--base", "B1", "--apply", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "strong", "r": 3, "n": 9, "coloring": "122131221"}


def test_construct_large_r_uses_file_form(capsys):
    assert invoke(["construct", "--maximal", "10", "--kind", "weak"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gspartition v1 kind=weak r=10 n=5624\n")
    coloring, kind = parse_coloring_with_kind(out)
    assert coloring.n == 5624 and coloring.r == 10


def test_construct_from_echoes_entries_above_nine(tmp_path, capsys):
    # r <= 9 but an entry above 9: no digit string holds it, so the input
    # comes back in its file form, as --json prints it.
    text = "gspartition v1 kind=strong r=9 n=9\n1 2 3 4 5 6 7 8 12\n"
    path = tmp_path / "p.txt"
    path.write_text(text)
    assert invoke(["construct", "--from", str(path)]) == 0
    assert capsys.readouterr() == (text, "")


def test_decompose_examples(capsys):
    assert invoke(["decompose", "122131221"]) == 0
    assert capsys.readouterr().out == "base=1 tags=FiveFold\n"
    assert invoke(["decompose", "1221"]) == 0
    assert capsys.readouterr().out == "base=1221 tags=\n"
    assert invoke(["decompose", "12121312131313121"]) == 0
    assert capsys.readouterr().out == "base=11212221 tags=TwoFold\n"


def test_decompose_json(capsys):
    assert invoke(["decompose", "122131221", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"base": "1", "tags": ["FiveFold"], "original_order": 9}


def test_decompose_canonicalizes_with_note(capsys):
    assert invoke(["decompose", "2112"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "base=1221 tags=\n"
    assert "canonicalized" in captured.err


def test_decompose_checks_canonicity_once(capsys, monkeypatch):
    # The command canonicalizes its input itself; the peeling must not
    # check it a second time.
    import gskit.structure

    def unexpected(c):
        raise AssertionError("second canonicity check")

    monkeypatch.setattr(gskit.structure, "is_canonical", unexpected)
    assert invoke(["decompose", "2112"]) == 0
    assert capsys.readouterr() == (
        "base=1221 tags=\n",
        "note: input canonicalized before decomposition\n",
    )
    assert invoke(["decompose", "122131221", "--json"]) == 0
    assert capsys.readouterr() == (
        '{"base": "1", "tags": ["FiveFold"], "original_order": 9}\n',
        "",
    )


def test_construct_decompose_roundtrip_via_pipe_text(capsys, monkeypatch):
    for r in range(1, 11):
        for kind in ("strong", "weak"):
            assert invoke(["construct", "--maximal", str(r), "--kind", kind]) == 0
            produced = capsys.readouterr().out
            assert invoke(["decompose", "-"], monkeypatch, produced) == 0
            out = capsys.readouterr().out
            assert out.startswith("base=")
            base, tags = out.strip().split(" tags=")
            rebuilt = parse_coloring(base.removeprefix("base="))
            steps = [t for t in tags.split(",") if t]
            for step in steps:
                rebuilt = two_fold(rebuilt) if step == "TwoFold" else five_fold(rebuilt)
            original, _ = parse_coloring_with_kind(produced)
            assert rebuilt == original


@pytest.mark.slow
@pytest.mark.parametrize("kind, r, base, tags", [
    ("strong", 18, "1221", ["FiveFold"] * 8),
    ("weak", 17, "11212221", ["TwoFold"] + ["FiveFold"] * 7),
])
def test_largest_orders_roundtrip(capsys, monkeypatch, kind, r, base, tags):
    # The largest maximal partitions construct accepts: n = 1,953,124 and
    # 1,406,249.  Deselected by default; run with `pytest -m slow`.
    assert invoke(["construct", "--maximal", str(r), "--kind", kind]) == 0
    produced = capsys.readouterr().out
    assert invoke(["decompose", "-"], monkeypatch, produced) == 0
    captured = capsys.readouterr()
    assert captured == (f"base={base} tags={','.join(tags)}\n", "")
    rebuilt = parse_coloring(base)
    for step in tags:
        rebuilt = two_fold(rebuilt) if step == "TwoFold" else five_fold(rebuilt)
    original, declared = parse_coloring_with_kind(produced)
    assert declared is Kind(kind)
    assert (rebuilt.n, rebuilt.r) == (gs_number(r, Kind(kind)).value - 1, r)
    assert rebuilt == original


def test_search_existence(capsys):
    assert invoke(["search", "--r", "2", "--n", "4"]) == 0
    assert capsys.readouterr().out == "1221\n"


def test_search_infeasible(capsys):
    assert invoke(["search", "--kind", "weak", "--r", "2", "--n", "9"]) == 1
    assert capsys.readouterr().out == "infeasible\n"


def test_search_max_order(capsys):
    assert invoke(["search", "--kind", "strong", "--r", "3", "--max-order"]) == 0
    assert capsys.readouterr().out == "m_max 9 confirmed (streak 5)\n"


def test_search_max_order_json(capsys):
    assert invoke(["search", "--kind", "weak", "--r", "2", "--max-order", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "kind": "weak", "r": 2, "limit": 13, "streak": 5,
        "m_max": 8, "confirmed": True,
    }


@pytest.mark.parametrize("extra, code, out", [
    (["--limit", "3"], 1, "m_max 0 confirmed (streak 5)\n"),
    (["--limit", "3", "--json"], 1, '{"kind": "strong", "r": 4, "limit": 3, "streak": 5,'
                                    ' "m_max": 0, "confirmed": true}\n'),
    (["--budget", "2"], 3, "m_max 0 unconfirmed (streak 5)\n"),
])
def test_search_max_order_without_a_feasible_order(capsys, extra, code, out):
    # No 4-color partition of [1, 3] exists: a proved m_max of 0 is a
    # definite negative and exits 1, as --enumerate does.  A budget that
    # stops the walk first leaves it unconfirmed, and exits 3.
    assert invoke(["search", "--r", "4", "--max-order", *extra]) == code
    assert capsys.readouterr() == (out, "")


def test_search_enumerate(capsys):
    assert invoke(["search", "--kind", "strong", "--r", "3", "--enumerate"]) == 0
    assert capsys.readouterr().out == "121313121\n122131221\n"


@pytest.mark.parametrize("extra, code, out, err", [
    (["--budget", "3"], 3, "", "no feasible order up to 14\n"),
    (["--limit", "2"], 1, "", "no feasible order up to 2\n"),
    (["--limit", "5", "--json"], 0,
     '{"kind": "strong", "r": 3, "n": 5, "witnesses": ["12131", "12213"],'
     ' "nodes": 8, "exhausted": true}\n', ""),
    (["--budget", "12", "--json"], 3,
     '{"kind": "strong", "r": 3, "n": 9, "witnesses": ["121313121"],'
     ' "nodes": 12, "exhausted": false}\n', ""),
])
def test_search_enumerate_at_maximum_outcomes(capsys, extra, code, out, err):
    # --enumerate without --n: nothing feasible (budget spent or proved),
    # a proved enumeration, and one cut short by the budget.
    assert invoke(["search", "--r", "3", "--enumerate", *extra]) == code
    assert capsys.readouterr() == (out, err)


def test_search_json_report(capsys):
    assert invoke(["search", "--r", "2", "--n", "4", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == (
        '{"kind": "strong", "r": 2, "n": 4, "witnesses": ["1221"],'
        ' "nodes": 5, "exhausted": false}\n'
    )


@pytest.mark.parametrize("kind", ["strong", "weak"])
def test_search_prints_witnesses_above_nine_colors_in_file_form(capsys, monkeypatch, kind):
    # No digit string holds a 10-color witness: search prints the file form,
    # with its own kind in the header, which verify and decompose read back.
    assert invoke(["search", "--kind", kind, "--r", "10", "--n", "600"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"gspartition v1 kind={kind} r=10 n=600\n")
    coloring, declared = parse_coloring_with_kind(out)
    assert declared is Kind(kind) and (coloring.r, coloring.n) == (10, 600)
    assert invoke(["verify", "-"], monkeypatch, out) == 0
    assert capsys.readouterr() == ("ok\n", "")
    assert invoke(["decompose", "-"], monkeypatch, out) == 0
    # No peel applies, so the base is the witness, after a line of its own.
    first, base = capsys.readouterr().out.split("\n", 1)
    assert first == "base=file tags="
    assert base == out
    assert invoke(["verify", "-"], monkeypatch, base) == 0
    assert capsys.readouterr() == ("ok\n", "")


def test_json_colorings_above_nine_colors_are_space_separated(capsys):
    # The JSON string of a coloring with an entry above 9 is its entries
    # joined by single spaces, the file form's second line.
    assert invoke(["construct", "--maximal", "10", "--json"]) == 0
    text = json.loads(capsys.readouterr().out)["coloring"]
    assert tuple(map(int, text.split(" "))) == maximal_partition(10, Kind.STRONG).colors
    assert invoke(["search", "--r", "10", "--n", "600", "--json"]) == 0
    (text,) = json.loads(capsys.readouterr().out)["witnesses"]
    (witness,) = run_search(SearchConfig(Kind.STRONG, 10, 600)).witnesses
    assert tuple(map(int, text.split(" "))) == witness.colors


def test_search_budget_inconclusive(capsys):
    assert invoke(["search", "--r", "3", "--n", "9", "--budget", "4"]) == 3
    assert capsys.readouterr().out == "inconclusive (budget exhausted)\n"


def test_search_deep_order_has_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "gskit.cli", "search", "--r", "9", "--n", "1249",
         "--budget", "20000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 3)
    assert "Traceback" not in proc.stderr


def test_search_has_no_streak_flag(capsys):
    # The margin past GS(r) - 1 in the default ceiling is fixed.
    assert invoke(["search", "--r", "3", "--max-order", "--streak", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --streak 3" in captured.err


def test_search_refuses_nan_wall(capsys):
    assert invoke(["search", "--r", "3", "--n", "9", "--wall", "nan"]) == 2
    assert capsys.readouterr() == ("", "error: wall budget must be positive\n")


@pytest.mark.parametrize("mode", [["--n", "9"], ["--max-order"], ["--enumerate"]])
def test_search_refuses_zero_workers(capsys, mode):
    # Checked before any search, in every mode.
    assert invoke(["search", "--r", "3", "--workers", "0", *mode]) == 2
    assert capsys.readouterr() == ("", "error: worker count must be positive\n")


def test_search_has_no_split_depth_flag(capsys):
    # The split depth is chosen from the config alone.
    argv = ["search", "--kind", "weak", "--r", "3", "--n", "17", "--enumerate"]
    assert invoke(argv + ["--split-depth", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --split-depth 3" in captured.err


def test_search_refuses_r_above_cap(capsys, monkeypatch):
    # Refused before GS(r) is computed or a forbid mask is built.
    monkeypatch.setattr("gskit.search.gs_number", None)
    monkeypatch.setattr("gskit.search._explore", None)
    for argv in (["--max-order", "--budget", "1000"], ["--n", "100", "--json"],
                 ["--enumerate"]):
        for r in (MAX_SEARCH_R + 1, 12303, 30000):
            assert invoke(["search", "--r", str(r), *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --r {r} is above the cap of {MAX_SEARCH_R}\n"
    monkeypatch.undo()
    # At the cap the search runs: 64 colors do not fit in 63 positions.
    assert invoke(["search", "--r", str(MAX_SEARCH_R), "--n", str(MAX_SEARCH_R - 1)]) == 1
    assert capsys.readouterr().out == "infeasible\n"


def test_search_flag_conflicts(capsys):
    assert invoke(["search", "--r", "3", "--max-order", "--n", "5"]) == 2
    capsys.readouterr()
    assert invoke(["search", "--r", "3"]) == 2
    capsys.readouterr()
    assert invoke(["search", "--n", "5"]) == 2  # --r is required


@pytest.mark.parametrize("mode", [[], ["--enumerate"]])
def test_search_limit_excludes_n(capsys, monkeypatch, mode):
    # A fixed --n is its own ceiling: --limit is refused, before any search.
    monkeypatch.setattr("gskit.search._explore", None)
    assert invoke(["search", "--r", "3", "--n", "5", "--limit", "3", *mode]) == 2
    assert capsys.readouterr() == ("", "error: --limit excludes --n\n")


def test_search_workers_agree(capsys):
    args = ["search", "--kind", "weak", "--r", "3", "--n", "17", "--enumerate", "--json"]
    assert invoke(args) == 0
    solo = capsys.readouterr().out
    assert invoke(args + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == solo


def test_cnf_encode_output(capsys):
    assert invoke(["cnf", "encode", "--n", "4", "--r", "2", "--kind", "strong"]) == 0
    out = capsys.readouterr().out
    assert "p cnf 8 " in out
    assert out.splitlines()[1] == "c n=4 r=2 kind=strong symmetry=off"


def test_cnf_encode_refuses_clause_counts_above_cap(capsys, monkeypatch):
    # The bench instance fits under the cap.
    assert clause_count(124, 6, Kind.STRONG, symmetry=True) == 479_510 <= MAX_CNF_CLAUSES
    # Refused from the closed form, before any clause is built.
    monkeypatch.setattr("gskit.cli_cnf.write_dimacs", None)
    assert invoke(["cnf", "encode", "--n", "100000", "--r", "50", "--symmetry"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --n 100000 --r 50 would emit 294119247500002 clauses, "
        f"above the cap of {MAX_CNF_CLAUSES}\n"
    )
    monkeypatch.setattr("gskit.cli_cnf.MAX_CNF_CLAUSES", 19)
    assert invoke(["cnf", "encode", "--n", "5", "--r", "2", "--kind", "weak"]) == 2
    assert "would emit 20 clauses, above the cap of 19" in capsys.readouterr().err


def test_cnf_decode_model(capsys, monkeypatch):
    model = "v 1 -2 -3 4 -5 6 7 -8 0\n"
    assert invoke(["cnf", "decode", "--n", "4", "--r", "2"], monkeypatch, model) == 0
    assert capsys.readouterr().out == "1221\n"


def test_cnf_decode_invalid_partition(capsys, monkeypatch):
    model = "1 -2 3 -4 5 -6 7 -8 0\n"
    assert invoke(["cnf", "decode", "--n", "4", "--r", "2"], monkeypatch, model) == 1
    captured = capsys.readouterr()
    assert captured.out == "1111\n"
    assert "monochromatic" in captured.err


def test_cnf_decode_inline_literals(capsys):
    assert invoke(["cnf", "decode", "v 1 -2 -3 4 -5 6 7 -8 0", "--n", "4", "--r", "2"]) == 0
    assert capsys.readouterr().out == "1221\n"


_MODEL = "v 1 -2 -3 4 -5 6 7 -8 0"


@pytest.mark.parametrize("argv", [
    ["decode", _MODEL, "--n", "4", "--r", "2"],          # model before the flags
    ["decode", "--n", "4", "--r", "2", _MODEL],          # model after the flags
    ["decode", "--n", "4", _MODEL, "--r", "2"],          # model between them
    ["--n", "4", "--r", "2", "decode", _MODEL],          # flags before the action
    ["--n", "4", "decode", "--kind", "strong", "--r", "2", _MODEL],
    ["decode", "--n", "4", "--r", "2"],                  # model omitted: stdin
    ["decode", "-", "--n", "4", "--r", "2"],
])
def test_cnf_decode_takes_the_model_anywhere(capsys, monkeypatch, argv):
    assert invoke(["cnf", *argv], monkeypatch, _MODEL + "\n") == 0
    assert capsys.readouterr() == ("1221\n", "")


def test_cnf_flags_parse_on_either_side_of_the_action(capsys):
    assert invoke(["cnf", "encode", "--n", "5", "--r", "2", "--kind", "weak", "--symmetry"]) == 0
    after = capsys.readouterr()
    assert invoke(["cnf", "--kind", "weak", "--symmetry", "encode", "--n", "5", "--r", "2"]) == 0
    assert capsys.readouterr() == after
    assert "kind=weak symmetry=on" in after.out
    # A flag given on both sides takes the later value, as argparse does.
    assert invoke(["cnf", "--n", "9", "decode", "--n", "4", "--r", "2", _MODEL]) == 0
    assert capsys.readouterr() == ("1221\n", "")


def test_cnf_encode_takes_no_model(capsys):
    assert invoke(["cnf", "encode", _MODEL, "--n", "4", "--r", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # The usage and the error line name the parser the model was given to.
    assert captured.err.startswith("usage: gskit cnf encode [-h]")
    assert captured.err.endswith(f"gskit cnf encode: error: unrecognized arguments: {_MODEL}\n")


@pytest.mark.parametrize("argv, err", [
    (["cnf", "decode", "--symmetry", "--n", "4", "--r", "2", _MODEL],
     "gskit cnf decode: error: unrecognized arguments: --symmetry\n"),
    (["cnf", "--symmetry", "decode", "--n", "4", "--r", "2", _MODEL],
     "error: --symmetry applies to encode only\n"),
])
def test_cnf_decode_refuses_symmetry(capsys, argv, err):
    # The flag shapes only the encoding; decode used to accept and ignore it.
    assert invoke(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(err) and captured.err.count("error:") == 1


@pytest.mark.parametrize("argv, err", [
    (["--bogus", "verify", "1221"],
     "usage: gskit [-h] {verify,table,construct,decompose,search,cnf} ...\n"
     "gskit: error: unrecognized arguments: --bogus\n"),
    (["cnf", "--bogus", "encode", "--n", "4", "--r", "2"],
     "usage: gskit cnf [-h] [--n N] [--r R] [--kind {strong,weak}] [--symmetry]\n"
     "                 {encode,decode} ...\n"
     "gskit cnf: error: unrecognized arguments: --bogus\n"),
    (["verify", "1221", "--bogus"],
     "usage: gskit verify [-h] [--kind {strong,weak}] [--all-witnesses] [--json]\n"
     "                    input\n"
     "gskit verify: error: unrecognized arguments: --bogus\n"),
], ids=["root", "cnf", "verify"])
def test_unknown_argument_names_the_parser_it_was_given_to(capsys, monkeypatch, argv, err):
    # Each parser refuses its own leftovers, so a flag given to the root or
    # to `cnf` is not blamed on the sub-command parsed after it.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to it
    assert invoke(argv) == 2
    assert capsys.readouterr() == ("", err)


# The help of the root, of each sub-command and of each cnf action, at
# COLUMNS=80.  The sub-commands' flags are added only when that sub-command
# is parsed, so this pins their names, their order and their wrapping.
_HELP = {
    (): """\
usage: gskit [-h] {verify,table,construct,decompose,search,cnf} ...

Verify, construct, decompose, search, and encode sum-avoiding rainbow-free
partitions of [1, n].

positional arguments:
  {verify,table,construct,decompose,search,cnf}
    verify              check a partition against the constraints
    table               print the closed-form maximal-order table
    construct           build partitions from bases and mappings
    decompose           peel a partition down to a base
    search              exhaustive backtracking search
    cnf                 DIMACS CNF encoding and model decoding (encode refused
                        above 2000000 clauses)

options:
  -h, --help            show this help message and exit
""",
    ("verify",): """\
usage: gskit verify [-h] [--kind {strong,weak}] [--all-witnesses] [--json]
                    input

positional arguments:
  input                 file, '-', or inline digit string

options:
  -h, --help            show this help message and exit
  --kind {strong,weak}
  --all-witnesses       report every violation, not just the first
  --json
""",
    ("table",): """\
usage: gskit table [-h] [--kind {strong,weak}] [--max-r MAX_R] [--json]

options:
  -h, --help            show this help message and exit
  --kind {strong,weak}
  --max-r MAX_R
  --json
""",
    ("construct",): """\
usage: gskit construct [-h]
                       (--base {B1,B2,B3A,B3B,C1,C2,C3} | --maximal R | --from INPUT)
                       [--apply {2,5,i2,i5}] [--kind {strong,weak}] [--json]

options:
  -h, --help            show this help message and exit
  --base {B1,B2,B3A,B3B,C1,C2,C3}
                        catalogue base to start from
  --maximal R           maximal partition for R colors (order at most 2000000)
  --from INPUT          partition to start from (file, '-', or digits)
  --apply {2,5,i2,i5}   mapping chain, applied left to right; i2/i5 invert;
                        refused if an order would exceed 2000000
  --kind {strong,weak}
  --json
""",
    ("decompose",): """\
usage: gskit decompose [-h] [--json] input

positional arguments:
  input       file, '-', or inline digit string

options:
  -h, --help  show this help message and exit
  --json
""",
    ("search",): """\
usage: gskit search [-h] [--kind {strong,weak}] --r R [--n N] [--max-order]
                    [--enumerate] [--limit LIMIT] [--workers WORKERS]
                    [--budget BUDGET] [--wall WALL] [--json]

options:
  -h, --help            show this help message and exit
  --kind {strong,weak}
  --r R                 number of colors
  --n N                 order to search
  --max-order           prove the largest feasible order up to --limit
  --enumerate           all canonical witnesses (at --n, or at the maximal
                        order)
  --limit LIMIT         order ceiling for --max-order/--enumerate, not with
                        --n (default: GS(r) - 1 + 5; any ceiling above GS(r) -
                        1 gives the same answer)
  --workers WORKERS     worker processes for --enumerate (default: 1)
  --budget BUDGET       node budget
  --wall WALL           wall-clock budget, seconds
  --json
""",
    ("cnf",): """\
usage: gskit cnf [-h] [--n N] [--r R] [--kind {strong,weak}] [--symmetry]
                 {encode,decode} ...

positional arguments:
  {encode,decode}
    encode              write DIMACS CNF to stdout
    decode              decode a solver model, print and verify it

options:
  -h, --help            show this help message and exit
  --n N                 order (required)
  --r R                 number of colors (required)
  --kind {strong,weak}
  --symmetry            add canonical-order symmetry-breaking clauses
""",
    ("cnf", "encode"): """\
usage: gskit cnf encode [-h] [--n N] [--r R] [--kind {strong,weak}]
                        [--symmetry]

options:
  -h, --help            show this help message and exit
  --n N                 order (required)
  --r R                 number of colors (required)
  --kind {strong,weak}
  --symmetry            add canonical-order symmetry-breaking clauses
""",
    ("cnf", "decode"): """\
usage: gskit cnf decode [-h] [--n N] [--r R] [--kind {strong,weak}] [model]

positional arguments:
  model                 solver output to decode (file, '-', or inline
                        literals)

options:
  -h, --help            show this help message and exit
  --n N                 order (required)
  --r R                 number of colors (required)
  --kind {strong,weak}
""",
}


@pytest.mark.parametrize("argv", list(_HELP), ids=lambda a: " ".join(a) or "root")
def test_help_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to it
    assert invoke([*argv, "--help"]) == 0
    assert capsys.readouterr() == (_HELP[argv], "")


@pytest.mark.parametrize("argv", [
    ["encode", "--r", "2"], ["decode", "--n", "4", _MODEL], ["--n", "4", "encode"],
])
def test_cnf_requires_n_and_r(capsys, argv):
    assert invoke(["cnf", *argv]) == 2
    assert capsys.readouterr() == ("", "error: --n and --r are required\n")


_HEADER = "gspartition v1 kind=strong r=2 n=4\n"


@pytest.mark.parametrize("argv, stdin, code, out, err", [
    (["search", "--r", "3", "--n", "0"], None, 2, "", "error: --n must be at least 1\n"),
    (["verify", "-"], _HEADER + "1 2 2 1", 2, "", "input error: missing trailing newline\n"),
    (["verify", "-"], _HEADER + "1 2 2 1\n\n", 2, "",
     "input error: expected exactly 2 lines, got 3\n"),
    (["verify", "-"], "gspartition v1 kind=strong r=2 n=0\n\n", 2, "",
     "input error: r and n must be positive\n"),
    (["verify", "-"], _HEADER + "1 3 2 1\n", 1, "color 3 out of range\n", ""),
    (["cnf", "decode", "-", "--n", "4", "--r", "2"], "UNSAT\n", 2, "",
     "error: solver reported unsatisfiable; no model to decode\n"),
], ids=["n-0", "no-trailing-newline", "three-lines", "header-n-0", "color-above-r", "unsat"])
def test_error_paths_print_their_one_line(capsys, monkeypatch, argv, stdin, code, out, err):
    assert invoke(argv, monkeypatch, stdin) == code
    assert capsys.readouterr() == (out, err)


def test_cnf_decode_long_inline_argument(capsys):
    # Too long to name a file, so it is read as literals, never looked up.
    assert invoke(["cnf", "decode", "1" * 300, "--n", "3", "--r", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: literal ") and "Errno" not in err


def test_cnf_decode_missing_file(capsys):
    assert invoke(["cnf", "decode", "missing/model.txt", "--n", "4", "--r", "2"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_verify_reads_a_fifo(tmp_path, capsys):
    # A named pipe is no regular file, yet it holds the input.
    fifo = tmp_path / "partition"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as f:
            f.write("1221\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    assert invoke(["verify", str(fifo)]) == 0
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert capsys.readouterr() == ("ok\n", "")


@pytest.mark.parametrize("name", ["/dev/stdin", "/dev/fd/{fd}"])
def test_verify_reads_a_pipe_by_name(name):
    # `gskit construct --maximal 5 | gskit verify /dev/stdin` and
    # `gskit verify <(gskit construct --maximal 5)`.
    cli = [sys.executable, "-m", "gskit.cli"]
    read_end, write_end = os.pipe()
    construct = subprocess.Popen(cli + ["construct", "--maximal", "5"], stdout=write_end)
    os.close(write_end)
    try:
        verify = subprocess.run(cli + ["verify", name.format(fd=read_end)], stdin=read_end,
                                pass_fds=(read_end,), capture_output=True, text=True,
                                timeout=120)
    finally:
        os.close(read_end)
    assert construct.wait(timeout=120) == 0
    assert (verify.returncode, verify.stdout, verify.stderr) == (0, "ok\n", "")


def test_a_directory_is_not_an_input(tmp_path, capsys):
    # A path-like directory has its own error; a bare name stays inline text.
    assert invoke(["verify", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: is a directory: {str(tmp_path)!r}\n")
    assert invoke(["verify", "missing/partition.txt"]) == 2
    assert capsys.readouterr() == ("", "error: no such file: 'missing/partition.txt'\n")
    assert invoke(["verify", "."]) == 2
    assert capsys.readouterr() == ("", "input error: invalid character '.' at position 1\n")


def test_cnf_decode_junk(capsys, monkeypatch):
    assert invoke(["cnf", "decode", "--n", "4", "--r", "2"], monkeypatch, "zzz\n") == 2


def test_cnf_decode_reports_overlong_literal_without_echo(capsys, monkeypatch):
    # More digits than int() converts: one short line, the token not echoed.
    model = "v 1 -2 " + "3" * 5000 + " 0\n"
    assert invoke(["cnf", "decode", "--n", "4", "--r", "2"], monkeypatch, model) == 2
    assert capsys.readouterr() == ("", "error: literal at position 3 has too many digits\n")
    # A token that is no number keeps its message.
    assert invoke(["cnf", "decode", "--n", "4", "--r", "2"], monkeypatch, "1 -2x 0\n") == 2
    assert capsys.readouterr() == ("", "error: malformed model token '-2x'\n")


def test_cnf_decode_names_out_of_range_literal_by_position(capsys):
    # The literal itself is never echoed: it may have thousands of digits.
    assert invoke(["cnf", "decode", "1" * 4000, "--n", "3", "--r", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: literal at position 1 is outside variable range 1..3\n"
    )
    assert invoke(["cnf", "decode", "v 1 9 0", "--n", "2", "--r", "2"]) == 2
    assert capsys.readouterr() == (
        "", "error: literal at position 2 is outside variable range 1..4\n"
    )


def test_cnf_decode_refuses_r_above_n(capsys):
    assert invoke(["cnf", "decode", "1", "--n", "1", "--r", "3000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: r=3000000 exceeds n=1; a partition of [1, n] has at most n colors\n"
    )


def test_cnf_encode_streams_parent_bytes(capsys):
    assert invoke(["cnf", "encode", "--n", "9", "--r", "3", "--symmetry"]) == 0
    out = capsys.readouterr().out
    assert out == to_dimacs(encode(9, 3, Kind.STRONG, symmetry=True))
    assert len(out) == 2765
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a1cd363c88c1b0286186e72e4ba69a49035c180e75c29aad8a34b7466c4d1b49"
    )


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["construct", "--maximal", "8"],
    ["cnf", "encode", "--n", "124", "--r", "6"],
])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    # A reader that has gone away (`gskit ... | head -c 5`): every write to
    # stdout fails with EPIPE, which is not an input error.  With buffered
    # stdout (the default) the interpreter's exit flush must not fail either.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gskit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.parametrize("error, err, code", [
    (BrokenPipeError("closed"), "", 0),
    (UsageError("bad flag"), "error: bad flag\n", 2),
    (ParseError("bad entry"), "input error: bad entry\n", 2),
    (PatternError("bad image"), "structure error: bad image\n", 1),
    (ValueError("bad value"), "error: bad value\n", 2),
    (OSError("bad file"), "error: bad file\n", 2),
    (WorkerError("dead worker"), "error: dead worker\n", 2),
])
def test_main_maps_each_error_to_one_line_and_a_code(
    capsys, monkeypatch, tmp_path, error, err, code
):
    def fail(args):
        raise error

    monkeypatch.setattr("gskit.cli_table.run", fail)
    # A file for stdout: a broken pipe points its descriptor at devnull.
    with open(tmp_path / "out", "w") as out, contextlib.redirect_stdout(out):
        assert main(["table"]) == code
    assert capsys.readouterr() == ("", err)


def test_main_lets_other_runtime_errors_propagate(monkeypatch):
    # Of the RuntimeErrors, only a failed search worker is mapped to a
    # code; any other is a fault of the program and keeps its traceback.
    def fail(args):
        raise RuntimeError("not a worker failure")

    monkeypatch.setattr("gskit.cli_table.run", fail)
    with pytest.raises(RuntimeError, match="^not a worker failure$"):
        main(["table"])


@pytest.mark.parametrize("value", ["medium", "STRONG"])
@pytest.mark.parametrize("command, rest", [
    (["verify"], ["1221"]),
    (["table"], []),
    (["construct"], ["--base", "B1"]),
    (["search"], ["--r", "2", "--n", "4"]),
    (["cnf"], ["--n", "4", "--r", "2", "encode"]),
    (["cnf", "encode"], ["--n", "4", "--r", "2"]),
    (["cnf", "decode"], ["--n", "4", "--r", "2", "v 1 -2 -3 4 -5 6 7 -8 0"]),
])
def test_every_kind_flag_refuses_other_names(capsys, command, rest, value):
    # argparse's choices are the only check of a --kind: the commands
    # convert it with Kind(...), which takes the exact lower-case names.
    assert invoke([*command, "--kind", value, *rest]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"\ngskit {' '.join(command)}: error: argument --kind: invalid choice: "
                        f"{value!r} (choose from 'strong', 'weak')\n")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gskit.cli", "verify", "1221"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["verify", "123", "--kind", "weak"], 1, "rainbow (1, 2, 3)", ""),
    (["verify", "1x1"], 2, "", "input error: "),
    (["search", "--r", "3", "--n", "9", "--budget", "4"], 3, "inconclusive", ""),
    (["search", "--r", "3", "--max-order", "--streak", "3"], 2, "",
     "unrecognized arguments: --streak 3"),
    (["construct", "--maximal", "4"], 0, "1221", ""),
    # Usage errors raised inside the command modules and the shared cli_io.
    (["table", "--max-r", "0"], 2, "", "error: --max-r must be at least 1\n"),
    (["construct", "--maximal", "19"], 2, "",
     "error: --maximal 19 would build order 3906249, above the cap of 2000000\n"),
    (["search", "--r", "0", "--n", "3"], 2, "", "error: --r must be at least 1\n"),
    (["cnf", "encode", "--n", "4"], 2, "", "error: --n and --r are required\n"),
    (["verify", "no/such/file"], 2, "", "error: no such file: 'no/such/file'\n"),
])
def test_module_entry_matches_main(capsys, argv, code, out, err):
    # The process exit path keeps main's code, stdout and stderr byte for byte.
    proc = subprocess.run(
        [sys.executable, "-m", "gskit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert invoke(argv) == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, *capsys.readouterr())
    assert out in proc.stdout and err in proc.stderr
    if err.startswith("error: "):  # a refusal is its single line
        assert proc.stderr == err


@pytest.mark.parametrize("argv, code", [
    (["verify", "1221"], 0),
    (["verify", "123"], 1),
    (["verify", "1x1"], 2),
    (["search", "--r", "6", "--max-order", "--budget", "10"], 3),
])
def test_main_never_exits(capsys, monkeypatch, argv, code):
    # Tests and the bench call main in-process; only run() ends the process.
    def refuse(status):
        raise AssertionError(f"os._exit({status}) called")

    monkeypatch.setattr(os, "_exit", refuse)
    assert main(argv) == code


@pytest.mark.parametrize("argv, code", [
    (["verify", "1221"], 0),
    (["verify", "123"], 1),
    (["search", "--r", "6", "--max-order", "--budget", "10"], 3),
])
def test_module_entry_runs_atexit_hooks_after_the_output(capsys, argv, code):
    # run() still calls the atexit handlers and flushes what they print,
    # after the command's own output.
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit hook')\n"
        f"sys.argv = ['gskit', *{argv!r}]\n"
        "runpy.run_module('gskit.cli', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert invoke(argv) == code
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out + "atexit hook\n", err)


def test_module_entry_exit_flush_meets_a_closed_stdout_quietly():
    # What is still buffered when run() flushes (here, an atexit hook's
    # line) goes to a reader that has gone away: the exit adds nothing to
    # stderr, as a broken pipe inside main does, and keeps main's code.
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit hook')\n"
        "sys.argv = ['gskit', 'verify', '1x1']\n"
        "runpy.run_module('gskit.cli', run_name='__main__')\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script], stdout=write_end, stderr=subprocess.PIPE,
            text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (
        2, "input error: invalid character 'x' at position 2\n")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, digest, size", [
    (["construct", "--maximal", "14"],
     "e166f8f9b4d39dca46a99b9a69e5744d8babc6cbb064ffe9797708f31e19ea86", 156362),
    (["cnf", "encode", "--n", "124", "--r", "6", "--symmetry"],
     "b06ad7e2572a048391cb8bd92b895b304014659edfe24bca7adb0d6122b6ab5b", 8011396),
])
def test_module_entry_writes_every_byte(argv, digest, size, unbuffered):
    # The exit flushes stdout before it leaves, so a large output arrives
    # whole whether or not stdout is buffered.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "gskit.cli", *argv], capture_output=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (len(proc.stdout), hashlib.sha256(proc.stdout).hexdigest()) == (size, digest)


def test_script_entry_point_is_the_exit_function():
    # The installed `gskit` script and `python -m gskit.cli` share one exit.
    root = Path(__file__).resolve().parents[1]
    target = re.search(r'^gskit = "gskit\.cli:(\w+)"$',
                       (root / "pyproject.toml").read_text(), re.M).group(1)
    tree = ast.parse((root / "src" / "gskit" / "cli.py").read_text())
    block = next(node for node in tree.body
                 if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{target}()"]
    assert target == "run"


# A small grammar of gskit command lines.  Orders, color counts and budgets
# stay small so no command searches for long, and --workers is never above
# 1, so no process pool starts; positional inputs and stdin are arbitrary.
_KINDS = st.sampled_from([[], ["--kind", "strong"], ["--kind", "weak"]])
_FLAG = st.sampled_from([[], ["--json"]])
_INPUTS = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="0123456789", min_size=1, max_size=40),
    st.sampled_from([
        "-", "1221", "123", "111", "2112", "122131221", "12121312131313121",
        "gspartition v1 kind=weak r=2 n=3\n1 2 1\n",
        "gspartition v1 kind=strong r=7 n=4\n1 2 2 1\n",
        "gspartition v1 kind=strong r=2 n=4\n1 2 9 1\n",
        "v 1 -2 -3 4 -5 6 7 -8 0", "no/such/file.txt",
    ]),
)


def _small(lo, hi):
    return st.integers(lo, hi).map(str)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["verify", "table", "construct", "decompose", "search", "cnf"]
    ))
    if command == "verify":
        argv = [command, draw(_INPUTS)] + draw(_KINDS) + draw(_FLAG)
        argv += draw(st.sampled_from([[], ["--all-witnesses"]]))
    elif command == "table":
        argv = [command] + draw(_KINDS) + draw(_FLAG)
        argv += draw(_opt("--max-r", _small(-2, 12)))
    elif command == "construct":
        start = draw(st.one_of(
            st.sampled_from(["B1", "B2", "C2", "B9"]).map(lambda b: ["--base", b]),
            st.one_of(_small(-1, 8), _small(19, 40)).map(lambda r: ["--maximal", r]),
            _INPUTS.map(lambda text: ["--from", text]),
        ))
        steps = draw(st.lists(st.sampled_from(["2", "5", "i2", "i5"]), max_size=3))
        argv = [command] + start + draw(_KINDS) + draw(_FLAG)
        argv += [token for step in steps for token in ("--apply", step)]
    elif command == "decompose":
        argv = [command, draw(_INPUTS)] + draw(_FLAG)
    elif command == "search":
        argv = [command, "--r", draw(_small(-1, 4))] + draw(_KINDS) + draw(_FLAG)
        argv += draw(st.sampled_from(
            [[], ["--max-order"], ["--enumerate"], ["--max-order", "--enumerate"]]
        ))
        argv += draw(_opt("--n", _small(-1, 14)))
        argv += draw(_opt("--limit", _small(-1, 30)))
        argv += draw(_opt("--workers", _small(-1, 1)))
        argv += draw(_opt("--budget", _small(-1, 3000)))
        argv += draw(_opt("--wall", st.sampled_from(["0", "-1", "0.5", "nan", "inf"])))
    else:
        argv = [command, draw(st.sampled_from(["encode", "decode"]))]
        argv += ["--n", draw(_small(-1, 8)), "--r", draw(_small(-1, 4))]
        argv += draw(_KINDS) + draw(st.sampled_from([[], ["--symmetry"]]))
        argv += draw(st.one_of(st.just([]), _INPUTS.map(lambda m: [m])))
    # Rewrite up to two flags into forms only argparse reads, so its path
    # stays fuzzed: `--flag=value`, a prefix of the flag, or the flag twice.
    flags = [i for i, token in enumerate(argv) if token in _FLAGS]
    for i in sorted(draw(st.sets(st.sampled_from(flags), max_size=2)) if flags else (),
                    reverse=True):
        flag, width = argv[i], 1 if argv[i] in _SWITCHES else 2
        form = draw(st.sampled_from(["=", "prefix", "twice"]))
        if form == "=" and width == 2 and i + 1 < len(argv):
            argv[i:i + 2] = [f"{flag}={argv[i + 1]}"]
        elif form == "prefix" and len(flag) > 3:
            argv[i] = flag[:draw(st.integers(3, len(flag) - 1))]
        elif form == "twice":
            argv[i:i] = argv[i:i + width]
    return argv


_SWITCHES = {"--json", "--all-witnesses", "--max-order", "--enumerate", "--symmetry"}
_FLAGS = _SWITCHES | {"--kind", "--max-r", "--base", "--maximal", "--from", "--apply", "--r",
                      "--n", "--limit", "--workers", "--budget", "--wall"}


@settings(max_examples=200, deadline=None)
@given(argv=_argv(), stdin_text=st.text(max_size=60))
def test_cli_never_tracebacks(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = invoke(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _argparse_values(argv):
    """vars() of the namespace argparse builds for `argv`, or None where it
    exits (help or a usage error)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def _assert_reader_matches_argparse(argv):
    """The reader declines `argv` or builds argparse's namespace, key by key
    (`func` included, a NaN equal to a NaN); True where it reads it."""
    read = cli._read(argv)
    if read is None:
        return False
    expected = _argparse_values(argv)
    assert expected is not None, argv
    got = vars(read)
    assert list(got) == list(expected), argv
    for key, value in expected.items():
        assert got[key] == value or (value != value and got[key] != got[key]), (argv, key)
    return True


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_reader_matches_argparse(argv):
    _assert_reader_matches_argparse(argv)


@pytest.mark.parametrize("argv, read", [
    (["search", "--r=3"], False),
    (["search", "--r", "3", "--max-o"], False),
    (["verify", "1221", "-h"], False),
    (["verify", "-h"], False),
    (["verify", "-5"], False),
    (["verify", "--help"], False),
    (["verify", "--", "1221"], False),
    (["search", "--r", "3", "--n", "-5"], False),
    ([], False),
    (["-h"], False),
    (["bogus"], False),
    (["verify", "1221", "--kind", "weak", "--kind", "strong"], True),
    (["construct", "--from", "1221", "--apply", "5", "--apply", "i5"], True),
    (["construct", "--from", "-"], True),
    (["construct", "--maximal", "4", "--maximal", "5"], True),
    (["verify", ""], True),
    (["construct", "--from", ""], True),
    (["search", "--n", "", "--r", "3"], False),
    (["search", "--r", " 6"], True),
    (["search", "--r", "3", "--wall", "inf"], True),
    (["search", "--r", "3", "--wall", "nan"], True),
    (["search", "--r", "3", "--wall", "x"], False),
    (["construct", "--maximal", "4", "--base", "B1"], False),
    (["construct", "--from", "12", "--base", "B1", "--from", "12"], False),
    (["construct", "--kind", "weak"], False),
    (["construct", "--base", "B0"], False),
    (["search", "--n", "9"], False),
    (["verify"], False),
    (["verify", "1221", "1221"], False),
    (["table", "1"], False),
    (["cnf", "--n", "9", "--r", "3", "encode"], True),
    (["cnf", "decode", "--n", "3", "--r", "2"], True),
    (["cnf", "--n", "9", "--kind", "weak", "decode", "--n", "3", "model", "--r", "2"], True),
    (["cnf", "--symmetry", "decode", "--n", "3", "--r", "2"], True),
    (["cnf", "decode", "--symmetry", "--n", "3", "--r", "2"], False),
    (["cnf", "encode", "model"], False),
    (["cnf", "--n", "3"], False),
    (["cnf", "model", "decode"], False),
    (["cnf", "decode", "a", "b"], False),
])
def test_reader_edges(argv, read):
    # The canonical form is read, and argparse gets every other argv.
    assert _assert_reader_matches_argparse(argv) == read


@pytest.mark.parametrize("argv, names, kwargs, dest, value", [
    (["table"], ["--verbose"], {"action": "count", "default": 0}, "verbose", 0),
    (["table"], ["--tags"], {"nargs": "+"}, "tags", None),
    (["table"], ["--level"], {"type": int, "default": "3"}, "level", 3),
    (["table"], ["-q", "--quiet"], {"action": "store_true"}, "quiet", False),
    (["cnf", "encode", "--n", "4", "--r", "2"], ["extra"], {"nargs": "?"}, "extra", None),
])
def test_reader_declines_a_call_it_does_not_model(monkeypatch, argv, names, kwargs, dest, value):
    # A declaration the reader does not model (an unknown action or nargs,
    # a string default that argparse converts, a second name, a positional
    # after one that takes other than one token) sends every argv of its
    # command to argparse.
    module = importlib.import_module(f"gskit.cli_{argv[0]}")
    declare = module.add_arguments

    def add_arguments(parser):
        declare(parser)
        parser.add_argument(*names, **kwargs)

    monkeypatch.setattr(module, "add_arguments", add_arguments)
    assert cli._read(argv) is None
    assert _argparse_values(argv)[dest] == value


def test_reader_declines_sub_parsers_it_does_not_model():
    # argparse sets no attribute for the word of sub-parsers without a
    # `dest`, and reads other keywords (a title, aliases) the reader does not.
    def read(subparsers, parser):
        flags = cli._Flags()
        flags.add_subparsers(**subparsers).add_parser("x", **parser)
        return flags.read(["x"])

    assert read({"dest": "a"}, {}) == {"a": "x"}
    assert read({}, {}) is None
    assert read({"dest": "a", "title": "t"}, {}) is None
    assert read({"dest": "a"}, {"aliases": ["y"]}) is None
