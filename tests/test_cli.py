"""End-to-end command surface: flags, exit codes, and output shapes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gskit.cli import MAX_CNF_CLAUSES, MAX_CONSTRUCT_ORDER, MAX_GS_R, MAX_SEARCH_R, UsageError, main
from gskit.construct import PatternError, five_fold, two_fold
from gskit.core import Kind, ParseError, parse_coloring, parse_coloring_with_kind
from gskit.pool import WorkerError
from gskit.satgen import clause_count, encode, to_dimacs
from gskit.values import gs_number


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
    monkeypatch.setattr("gskit.cli.gs_number", None)
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
    monkeypatch.setattr("gskit.construct.maximal_partition", None)
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
    monkeypatch.setattr("gskit.cli.MAX_CONSTRUCT_ORDER", 49)
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
    monkeypatch.setattr("gskit.cli.gs_number", None)
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
    monkeypatch.setattr("gskit.satgen.write_dimacs", None)
    assert invoke(["cnf", "encode", "--n", "100000", "--r", "50", "--symmetry"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --n 100000 --r 50 would emit 294119247500002 clauses, "
        f"above the cap of {MAX_CNF_CLAUSES}\n"
    )
    monkeypatch.setattr("gskit.cli.MAX_CNF_CLAUSES", 19)
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


def test_cnf_decode_long_inline_argument(capsys):
    # Too long to name a file, so it is read as literals, never looked up.
    assert invoke(["cnf", "decode", "1" * 300, "--n", "3", "--r", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: literal ") and "Errno" not in err


def test_cnf_decode_missing_file(capsys):
    assert invoke(["cnf", "decode", "missing/model.txt", "--n", "4", "--r", "2"]) == 2
    assert "no such file" in capsys.readouterr().err


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

    monkeypatch.setattr("gskit.cli.cmd_table", fail)
    # A file for stdout: a broken pipe points its descriptor at devnull.
    with open(tmp_path / "out", "w") as out, contextlib.redirect_stdout(out):
        assert main(["table"]) == code
    assert capsys.readouterr() == ("", err)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gskit.cli", "verify", "1221"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ok\n"


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
    return argv


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
