"""Every name a gskit module imports is used in that module, and imported once.

No linter ships with the toolchain, so these are the import checks: a
name bound by `import` or `from ... import` at any depth must appear as
a name somewhere else in the same file, and no file may bind the same
name by import twice.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gskit").glob("*.py"))


def _bindings(tree) -> list[tuple[int, str]]:
    """(line, bound name) of every import in `tree`, in line order;
    `from __future__` binds nothing."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
    return sorted(bound)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in _bindings(tree) if name not in used]


def _repeated_imports(source: str) -> list[str]:
    """Imports of a name the same file has already imported: the second is
    dead, such as a function-level import left after a module-level one."""
    seen = set()
    repeated = []
    for line, name in _bindings(ast.parse(source)):
        if name in seen:
            repeated.append(f"line {line}: {name}")
        seen.add(name)
    return repeated


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_name_is_imported_twice(path):
    assert _repeated_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom re import compile, match as m\n\nprint(os.sep, m)\n"
    assert _unused_imports(source) == ["line 2: compile"]


def test_the_check_sees_a_repeated_import():
    source = ("from os import sep\nimport re\n\n\ndef f():\n"
              "    from os import sep\n    import re as regex\n    return sep, regex\n")
    assert _repeated_imports(source) == ["line 6: sep"]
