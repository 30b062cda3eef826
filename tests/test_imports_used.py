"""Every name a gskit module imports is used in that module.

No linter ships with the toolchain, so this is the unused-import check:
a name bound by `import` or `from ... import` at any depth must appear
as a name somewhere else in the same file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gskit").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line of the import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom re import compile, match as m\n\nprint(os.sep, m)\n"
    assert _unused_imports(source) == ["line 2: compile"]
