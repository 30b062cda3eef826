"""Lazy loading: the package exports resolve on first use, and each CLI
command imports only the layers it runs."""

from __future__ import annotations

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import gskit

# Runs gskit's CLI in a fresh interpreter and prints the exit code and the
# modules imported after start-up (stdout of the command is discarded, and
# argparse's exit from --help or a usage error is its code).  The harness
# prints with repr, so json counts when the command loads it.
_FOOTPRINT = """
import contextlib, io, sys
before = set(sys.modules)
if {cpus}:
    import gskit.search
    gskit.search._usable_cpus = lambda: {cpus}
from gskit.cli import main
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(repr([code, sorted(set(sys.modules) - before)]))
"""

_HEAVY = {"concurrent.futures.process", "multiprocessing"}


def _footprint(argv, cpus=None, site=True, stdin=""):
    """The exit code and the modules the command loads; with `site` False
    the interpreter runs with -S, so no site hook preloads any module."""
    flags = [] if site else ["-S"]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _FOOTPRINT.format(cpus=cpus), *argv],
        input=stdin,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    code, modules = ast.literal_eval(proc.stdout)
    return code, set(modules)


# Each command with the modules it loads besides gskit.cli and gskit.values:
# its own command module, the shared cli_io where it reads an input or
# prints a coloring, and the layers it runs.
_COMMAND_LAYERS = {
    ("verify", "1221"): {"cli_verify", "cli_io", "core"},
    ("table",): {"cli_table"},
    ("construct", "--maximal", "4"): {"cli_construct", "cli_io", "construct"},
    ("decompose", "1221"): {"cli_decompose", "cli_io", "core", "construct", "structure"},
    # printed in file form, which gskit.values writes
    ("construct", "--maximal", "10"): {"cli_construct", "cli_io", "construct"},
    ("construct", "--from", "1221", "--apply", "5"):
        {"cli_construct", "cli_io", "construct", "core"},
    ("search", "--r", "3", "--max-order"): {"cli_search", "search"},
    ("search", "--r", "3", "--n", "9"): {"cli_search", "cli_io", "search"},
    ("search", "--r", "10", "--n", "600"): {"cli_search", "cli_io", "search"},
    ("cnf", "encode", "--n", "4", "--r", "2"): {"cli_cnf", "satgen"},
    ("cnf", "decode", "v 1 -2 -3 4 -5 6 7 -8 0", "--n", "4", "--r", "2"):
        {"cli_cnf", "cli_io", "satgen", "core"},
}


@pytest.mark.parametrize("argv", [list(argv) for argv in _COMMAND_LAYERS])
def test_commands_load_only_their_layers(argv):
    # Every command compiles gskit.values, its own command module and then
    # only what it uses.
    code, loaded = _footprint(argv)
    assert code == 0
    assert {m for m in loaded if m.startswith("gskit")} == {
        "gskit", "gskit.cli", "gskit.values",
        *(f"gskit.{module}" for module in _COMMAND_LAYERS[tuple(argv)]),
    }
    assert not loaded & _HEAVY


# A split enumeration on two processes, which forks one child.
_SPLIT_RUN = ("search", "--kind", "weak", "--r", "5", "--n", "89", "--enumerate", "--workers", "2")


@pytest.mark.parametrize("argv", [list(argv) for argv in [*_COMMAND_LAYERS, _SPLIT_RUN]])
def test_commands_load_neither_pathlib_typing_nor_pickle(argv):
    # Without the site hook, which may preload modules, each of these would
    # cost milliseconds per command.  A split run's children send their
    # results by marshal, so pickle stays out of a run without errors; its
    # task indices are single bytes, all written before the fork, so
    # neither struct nor select comes in either.
    code, loaded = _footprint(argv, cpus=2, site=False)
    assert code == 0
    assert ("gskit.pool" in loaded) == (tuple(argv) == _SPLIT_RUN)
    assert not loaded & {"pathlib", "typing", "pickle"}
    if tuple(argv) == _SPLIT_RUN:
        assert not loaded & {"struct", "select"}


def _strong_model(r):
    """A solver model of the strong maximal partition for r colors."""
    from gskit.construct import maximal_partition
    from gskit.satgen import var_index

    colors = maximal_partition(r, gskit.Kind.STRONG).colors
    literals = [var_index(v, i, r) * (1 if color == i else -1)
                for v, color in enumerate(colors, 1) for i in range(1, r + 1)]
    return "v " + " ".join(map(str, literals)) + " 0\n"


_ARGPARSE = {"argparse", "gettext", "locale"}

# Command lines in the canonical form, each with its stdin: the commands
# above and the bench's forms of each command.
_CANONICAL = [
    *((argv, "") for argv in _COMMAND_LAYERS),
    (("verify", "-", "--kind", "strong"), "1221\n"),
    (("construct", "--maximal", "9", "--kind", "weak"), ""),
    (("decompose", "-"), "1221\n"),
    (("search", "--kind", "weak", "--r", "8", "--n", "500", "--enumerate", "--json",
      "--workers", "2"), ""),
    (("cnf", "encode", "--n", "124", "--r", "6", "--symmetry"), ""),
    (("cnf", "decode", "-", "--n", "124", "--r", "6"), None),
]


@pytest.mark.parametrize("argv, stdin", [(list(argv), stdin) for argv, stdin in _CANONICAL])
def test_canonical_command_lines_load_no_argparse(argv, stdin):
    # Read by `cli._read`, these build no parser, so neither argparse nor
    # the gettext and locale it loads come in.  A command that falls back
    # to argparse for its usual form (after a new flag uses an action the
    # reader does not model, say) fails here.
    code, loaded = _footprint(argv, cpus=2, stdin=_strong_model(6) if stdin is None else stdin)
    assert code == 0
    assert not loaded & _ARGPARSE


@pytest.mark.parametrize("argv, code, err", [
    (["verify", "--help"], 0, ""),
    (["search", "--kind", "bogus", "--r", "3"], 2,
     "gskit search: error: argument --kind: invalid choice: 'bogus' (choose from 'strong', "
     "'weak')\n"),
    (["search", "--r=3", "--max-order"], 0, ""),
])
def test_other_command_lines_go_to_argparse(argv, code, err):
    # Help, usage errors and the forms the reader leaves to argparse load
    # it, and keep its exit code and text.
    got, loaded = _footprint(argv)
    assert got == code
    assert _ARGPARSE <= loaded
    proc = subprocess.run([sys.executable, "-m", "gskit.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr.endswith(err)) == (code, True)
    if argv[-1] == "--help":
        assert proc.stdout.startswith("usage: gskit verify [-h] [--kind {strong,weak}]")
    elif code == 0:
        assert proc.stdout == "m_max 9 confirmed (streak 5)\n"


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2)])
def test_root_parser_loads_no_command_module(argv, code):
    # The root help and a choice error name the sub-commands but build none.
    got, loaded = _footprint(argv)
    assert got == code
    assert {m for m in loaded if m.startswith("gskit")} == {"gskit", "gskit.cli", "gskit.values"}


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


def _gskit_imports(nodes) -> set[str]:
    """The gskit modules that the import statements among `nodes` name,
    relative ones as seen from inside the package."""
    named = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "gskit." + base if base else "gskit"
            if base.startswith("gskit"):
                named |= {base, *(f"{base}.{a.name}" for a in node.names)}
        elif isinstance(node, ast.Import):
            named |= {a.name for a in node.names if a.name.startswith("gskit")}
    return named


def _module_level(tree):
    """The statements run on import: all but the bodies of functions and classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_command_modules_never_import_the_entry_point():
    # Under `python -m gskit.cli` that file runs as __main__, so importing
    # gskit.cli from a command module would run a second copy of it.
    package = Path(gskit.__file__).parent
    commands = sorted(package.glob("cli_*.py"))
    assert {p.stem for p in commands} >= {
        "cli_io", "cli_verify", "cli_table", "cli_construct", "cli_decompose", "cli_search",
        "cli_cnf",
    }
    for path in commands:
        named = _gskit_imports(ast.walk(ast.parse(path.read_text())))
        assert "gskit.cli" not in named, path.name
    # The entry point imports a command module only once its command is parsed.
    tree = ast.parse((package / "cli.py").read_text())
    assert not {m for m in _gskit_imports(_module_level(tree)) if m.startswith("gskit.cli_")}


def test_the_entry_point_check_sees_each_import_form():
    forms = ["from . import cli", "from .cli import main", "import gskit.cli",
             "from gskit import cli", "from gskit.cli import main"]
    for form in forms:
        assert "gskit.cli" in _gskit_imports(ast.walk(ast.parse(form))), form
    source = "from .cli_io import read_input\ndef f():\n    from . import cli_table\n"
    assert _gskit_imports(_module_level(ast.parse(source))) == {
        "gskit.cli_io", "gskit.cli_io.read_input"}


def test_exports_resolve_to_their_defining_layer():
    assert gskit.__all__ == sorted(set(gskit.__all__))
    for name in gskit.__all__:
        layer = importlib.import_module(f"gskit.{gskit._EXPORTS[name]}")
        value = getattr(gskit, name)
        assert value is getattr(layer, name), name
        assert getattr(value, "__module__", layer.__name__) == layer.__name__, name
    assert gskit.search is importlib.import_module("gskit.search")


_ROOT = Path(__file__).resolve().parents[1]

# The callers a public name or option needs: the library, the bench
# harness and the acceptance criteria.
_CALLER_SOURCES = [
    *(p for p in (_ROOT / "src" / "gskit").glob("*.py") if p.name != "__init__.py"),
    *(_ROOT / "bench").glob("*.py"),
    _ROOT / "tests" / "test_acceptance.py",
]


def _names_used(source: str) -> set[str]:
    """Every name or attribute `source` reads, except those read inside the
    definition of a function or class of the same name."""
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return used


def test_every_export_has_a_caller():
    # A public name stays only while the library, the bench harness or the
    # acceptance criteria use it.
    used = set().union(*(_names_used(p.read_text()) for p in _CALLER_SOURCES))
    assert sorted(set(gskit.__all__) - used) == []


def test_the_caller_check_skips_a_name_used_only_in_its_own_definition():
    source = "def f():\n    return f\n\nclass C:\n    g = C\n\nh = f\n"
    assert _names_used(source) == {"f"}


def _options_passed(source: str) -> set[tuple[str, str | int]]:
    """(callee, keyword) and (callee, position) for every argument a call
    in `source` passes; the callee is the last name of `f(...)` or
    `m.f(...)`, and `*args` or `**kwargs` passes every position or keyword."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for i, arg in enumerate(node.args):
                passed.add((callee, "*" if isinstance(arg, ast.Starred) else i))
            passed |= {(callee, kw.arg or "**") for kw in node.keywords}
    return passed


def _unpassed_options(signatures, passed) -> list[str]:
    """`name(param)` for every parameter with a default, in the
    `(name, inspect.Signature)` pairs, that no entry of `passed` covers."""
    missing = []
    for name, sig in signatures:
        for i, p in enumerate(sig.parameters.values()):
            by_position = p.kind is not p.KEYWORD_ONLY and passed & {(name, i), (name, "*")}
            by_keyword = p.kind is not p.POSITIONAL_ONLY and passed & {(name, p.name), (name, "**")}
            if p.default is not p.empty and not (by_position or by_keyword):
                missing.append(f"{name}({p.name})")
    return missing


def test_every_option_has_a_caller():
    # An optional parameter of a public function, or of a public record's
    # constructor, stays only while a caller of the library passes it.
    public = [(name, getattr(gskit, name)) for name in gskit.__all__]
    signatures = [(name, inspect.signature(obj)) for name, obj in public
                  if inspect.isfunction(obj)
                  or (inspect.isclass(obj) and issubclass(obj, gskit.values.Record))]
    passed = set().union(*(_options_passed(p.read_text()) for p in _CALLER_SOURCES))
    assert _unpassed_options(signatures, passed) == []


def test_the_option_check_sees_each_way_of_passing():
    def f(a, b=1, *, c=2):
        pass

    def g(a, b=1, /, c=2):
        pass

    signatures = [("f", inspect.signature(f)), ("g", inspect.signature(g))]
    source = "f(0)\nm.f(0, c=3)\ng(0, b=1, c=2)\nf(b=4)\n"
    assert _unpassed_options(signatures, _options_passed(source)) == ["g(b)"]
    assert _unpassed_options(signatures, _options_passed("f(0, *x)\ng(*x)\n")) == ["f(c)"]
    assert _unpassed_options(signatures, _options_passed("f(c=0)\ng(0, 1, 2)\nf(**kw)\n")) == []
    assert _unpassed_options(signatures, _options_passed("h(0, 1, c=2)\n")) == [
        "f(b)", "f(c)", "g(b)", "g(c)"]


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
