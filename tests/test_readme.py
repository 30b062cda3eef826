"""The README's CLI examples: every `$ gskit ...` line of an `sh` block,
run in-process, prints exactly the lines shown under it."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from gskit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, expected stdout) for each example that runs without a shell.

    Pipes and redirects need a shell, and an argument `cli._read_input`
    takes for a path (one with `/` or ending in `.txt`) names a file the
    README does not create, so those lines are skipped.
    """
    found = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ gskit "):
                continue
            argv = shlex.split(line[2:], comments=True)
            if any(t in ("|", ">", "<") or "/" in t or t.endswith(".txt") for t in argv):
                continue
            shown = []
            for out in lines[i + 1:]:
                if out.startswith("$ "):
                    break
                shown.append(out + "\n")
            found.append((argv[1:], "".join(shown)))
    return found


_EXAMPLES = _examples()


def test_readme_examples_are_found():
    assert len(_EXAMPLES) >= 14


@pytest.mark.parametrize("argv, shown", _EXAMPLES, ids=[" ".join(a) for a, _ in _EXAMPLES])
def test_readme_example_output(capsys, argv, shown):
    assert main(argv) in (0, 1)
    assert capsys.readouterr().out == shown
