"""Only two places end the process with `os._exit`, and the CLI's one
first does what the interpreter's shutdown would.

`os._exit` leaves at once: no atexit handler runs and nothing still
buffered in `sys.stdout` or `sys.stderr` is written.  `cli.run` calls it
only after `atexit._run_exitfuncs()` and a flush of both streams, and
`pool._serve` calls it in a forked child, so that the parent's buffered
output and handlers do not run twice.  This check fails on any other use
of `os._exit` in gskit, as an attribute or imported from `os` by name,
and on a `cli.run` that no longer runs those steps before it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gskit"
_ALLOWED = {("cli.py", "run"), ("pool.py", "_serve")}
_BEFORE_EXIT = ["atexit._run_exitfuncs()", "sys.stdout.flush()", "sys.stderr.flush()"]


def _exits(source: str) -> list[tuple[str, str]]:
    """(enclosing function, where) of each use of `os._exit` in `source`;
    the function is "" at module level."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "_exit"
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((function, f"line {node.lineno}: os._exit"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend((function, f"line {node.lineno}: from os import _exit")
                         for alias in node.names if alias.name == "_exit")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return found


def _missing_before_exit(source: str, function: str) -> list[str]:
    """The steps of `_BEFORE_EXIT` that no statement of `function` runs
    before its first call of `os._exit`."""
    tree = ast.parse(source)
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    calls = sorted((node.lineno, node.col_offset, ast.unparse(node))
                   for node in ast.walk(body) if isinstance(node, ast.Call))
    exit_at = next(i for i, (_, _, text) in enumerate(calls) if text.startswith("os._exit("))
    done = {text for _, _, text in calls[:exit_at]}
    return [step for step in _BEFORE_EXIT if step not in done]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_entry_point_and_the_workers_exit_directly(path):
    assert [where for function, where in _exits(path.read_text())
            if (path.name, function) not in _ALLOWED] == []


def test_the_entry_point_flushes_before_it_exits():
    source = (_PACKAGE / "cli.py").read_text()
    assert [function for function, _ in _exits(source)] == ["run"]
    assert _missing_before_exit(source, "run") == []


def test_the_check_sees_an_exit_that_drops_output():
    source = (
        "import atexit, os, sys\nfrom os import _exit, sep\n\n"
        "def run():\n    code = main()\n    sys.stdout.flush()\n    os._exit(code)\n"
        "    atexit._run_exitfuncs()\n\n"
        "def other():\n    leave = os._exit\n"
    )
    assert _exits(source) == [
        ("", "line 2: from os import _exit"), ("run", "line 7: os._exit"),
        ("other", "line 11: os._exit"),
    ]
    assert _missing_before_exit(source, "run") == ["atexit._run_exitfuncs()", "sys.stderr.flush()"]
