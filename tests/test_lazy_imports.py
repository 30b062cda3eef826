"""Lazy loading: the package exports resolve on first use, and each CLI
command imports only the layers it runs."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import gskit

# Runs gskit's CLI in a fresh interpreter and prints the exit code and the
# modules imported after start-up (stdout of the command is discarded).  The
# harness prints with repr, so json counts when the command loads it.
_FOOTPRINT = """
import contextlib, io, os, sys
before = set(sys.modules)
if {cpus}:
    os.cpu_count = lambda: {cpus}
from gskit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(repr([code, sorted(set(sys.modules) - before)]))
"""

_HEAVY = {"concurrent.futures.process", "multiprocessing"}


def _footprint(argv, cpus=None):
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT.format(cpus=cpus), *argv],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    code, modules = ast.literal_eval(proc.stdout)
    return code, set(modules)


# Each command with the layers it loads besides gskit.values.
_COMMAND_LAYERS = {
    ("verify", "1221"): {"core"},
    ("table",): set(),
    ("construct", "--maximal", "4"): {"construct"},
    ("decompose", "1221"): {"core", "construct", "structure"},
    ("construct", "--maximal", "10"): {"construct", "core"},  # printed in file form
    ("construct", "--from", "1221", "--apply", "5"): {"construct", "core"},
    ("search", "--r", "3", "--max-order"): {"search"},
    ("search", "--r", "3", "--n", "9"): {"search"},
    ("cnf", "encode", "--n", "4", "--r", "2"): {"satgen"},
    ("cnf", "decode", "v 1 -2 -3 4 -5 6 7 -8 0", "--n", "4", "--r", "2"): {"satgen", "core"},
}


@pytest.mark.parametrize("argv", [list(argv) for argv in _COMMAND_LAYERS])
def test_commands_load_only_their_layers(argv):
    # Every command compiles gskit.values and then only the layers it runs.
    code, loaded = _footprint(argv)
    assert code == 0
    assert {m for m in loaded if m.startswith("gskit")} == {
        "gskit", "gskit.cli", "gskit.values",
        *(f"gskit.{layer}" for layer in _COMMAND_LAYERS[tuple(argv)]),
    }
    assert not loaded & _HEAVY


@pytest.mark.parametrize("argv", [
    ["verify", "1221"],
    ["construct", "--maximal", "4"],
    ["decompose", "1221"],
    ["search", "--r", "3", "--n", "13"],
])
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    # The value records are plain classes, so no command pays for
    # dataclasses and the inspect module it imports.
    code, loaded = _footprint(argv)
    assert code == (1 if argv[0] == "search" else 0)  # no 3-color partition of [1, 13]
    assert not loaded & {"dataclasses", "inspect"}


def test_sequential_search_leaves_out_the_process_pool():
    code, loaded = _footprint(
        ["search", "--kind", "weak", "--r", "4", "--n", "12", "--enumerate", "--workers", "1"]
    )
    assert code == 0
    assert "gskit.search" in loaded
    assert not loaded & {"gskit.pool", "concurrent.futures.process", "multiprocessing"}


def test_forked_search_loads_no_executor():
    # Two workers fork their children directly (given two CPUs, which the
    # harness reports here), with no concurrent.futures or multiprocessing.
    code, loaded = _footprint(
        ["search", "--kind", "weak", "--r", "4", "--n", "12", "--enumerate", "--workers", "2"],
        cpus=2,
    )
    assert code == 0
    assert {"gskit.search", "gskit.pool"} <= loaded
    assert not loaded & {"concurrent.futures", "concurrent.futures.process", "multiprocessing"}


@pytest.mark.parametrize("argv", [
    ["verify", "1221"],
    ["table"],
    ["construct", "--maximal", "4"],
    ["decompose", "1221"],
    ["search", "--r", "3", "--n", "13"],
])
def test_commands_without_json_flag_load_no_json(argv):
    code, loaded = _footprint(argv)
    assert code == (1 if argv[0] == "search" else 0)
    assert "json" not in loaded
    code, loaded = _footprint(argv + ["--json"])
    assert "json" in loaded


def test_package_import_loads_no_layer():
    script = (
        "import sys, gskit\n"
        "print(sorted(m for m in sys.modules if m.startswith('gskit')))\n"
        "gskit.Kind\n"
        "print(sorted(m for m in sys.modules if m.startswith('gskit')))\n"
        "print(gskit.search.max_order.__module__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
    )
    # A layer is loaded by its first name, and reachable as an attribute.
    assert proc.stdout == "['gskit']\n['gskit', 'gskit.values']\ngskit.search\n"


def test_search_layer_never_loads_the_verifier_or_the_constructions():
    # The search reads GS(r) for its default limit from gskit.values.
    script = (
        "import sys\n"
        "from gskit.search import SearchConfig, SearchMode, run_search, walk_limit\n"
        "from gskit.values import Kind\n"
        "run_search(SearchConfig(Kind.WEAK, 3, 13, SearchMode.ENUMERATE_ALL))\n"
        "print(walk_limit(Kind.WEAK, 3, 13), walk_limit(Kind.WEAK, 3))\n"
        "print(sorted(m for m in sys.modules if m.startswith('gskit')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
    )
    assert proc.stdout == "13 22\n['gskit', 'gskit.search', 'gskit.values']\n"


def test_values_imports_no_gskit_module():
    # gskit.values is the leaf every layer imports: it imports none of them.
    source = Path(gskit.__file__).with_name("values.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("gskit"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("gskit") for a in node.names)


def test_exports_resolve_to_their_defining_layer():
    assert gskit.__all__ == sorted(set(gskit.__all__))
    for name in gskit.__all__:
        layer = importlib.import_module(f"gskit.{gskit._EXPORTS[name]}")
        value = getattr(gskit, name)
        assert value is getattr(layer, name), name
        assert getattr(value, "__module__", layer.__name__) == layer.__name__, name
    assert gskit.search is importlib.import_module("gskit.search")


def test_star_import_and_dir_cover_all():
    namespace: dict = {}
    exec("from gskit import *", namespace)
    assert set(gskit.__all__) <= set(namespace)
    assert set(gskit.__all__) <= set(dir(gskit))
    assert "__version__" in dir(gskit)


def test_unknown_attribute_raises_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'gskit' has no attribute 'nope'$"):
        gskit.nope
    assert not hasattr(gskit, "cli_main")
