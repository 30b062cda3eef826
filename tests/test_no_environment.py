"""No gskit module reads the environment.

Every setting is a command-line flag or a function argument, so one
command line always means the same run.  This check fails on any read of
`os.environ`, `os.environb` or `os.getenv`, as an attribute or imported
from `os` by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gskit").glob("*.py"))
_READERS = {"environ", "environb", "getenv"}


def _environment_reads(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {alias.name}"
                      for alias in node.names if alias.name in _READERS]
    return sorted(found)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert _environment_reads(path.read_text()) == []


def test_the_check_sees_an_environment_read():
    source = (
        "import os\nfrom os import getenv, sep\n\n"
        "raw = os.environ.get('X')\nother = os.getenv('Y')\nprint(os.sep, sep)\n"
    )
    assert _environment_reads(source) == [
        "line 2: from os import getenv", "line 4: os.environ", "line 5: os.getenv",
    ]
