"""Lazy loading: the package exports resolve on first use, and each CLI
command imports only the layers it runs."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys

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

_HEAVY = {"gskit.search", "gskit.pool", "gskit.satgen", "concurrent.futures.process", "multiprocessing"}


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


@pytest.mark.parametrize("argv", [
    ["verify", "1221"],
    ["table"],
    ["construct", "--maximal", "4"],
    ["decompose", "1221"],
])
def test_commands_load_only_their_layers(argv):
    code, loaded = _footprint(argv)
    assert code == 0
    assert {"gskit.core", "gskit.construct"} <= loaded
    assert not loaded & _HEAVY
    assert ("gskit.structure" in loaded) == (argv[0] == "decompose")


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
    assert proc.stdout == "['gskit']\n['gskit', 'gskit.core']\ngskit.search\n"


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
