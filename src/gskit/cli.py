"""Command-line interface.

Subcommands: verify, table, construct, decompose, search, cnf.  Exit
codes are uniform across commands: 0 means ok (property verified,
witness found), 1 means a definite negative answer (violation found,
infeasible order, structural mismatch), 2 means a usage or input error,
and 3 means a budget ran out before the answer was conclusive.
`search --enumerate --workers P` walks on at most P processes, this one
among them, so it forks at most P - 1 search workers.  A worker that
dies, or whose error cannot be sent back, ends the command with one
`error:` line and code 2, like an I/O error.

Positional inputs (partitions and solver models) are a file path, `-`
for stdin, or inline text; partition content may be a digit string or
the explicit `gspartition v1` form, whose declared kind is used when
--kind is not given.  All JSON output has a fixed field order.

`main` parses, runs and returns the exit code, and may be called
in-process; `run` is the process entry point of `python -m gskit.cli`
and the installed `gskit` script.

This module holds only the entry points, the root parser and the table
of sub-commands, and imports no layer.  Each sub-command's flags, caps
and handler are in its own module, `gskit.cli_<name>`, which the parser
imports only when that sub-command is the one given, so a command
compiles no other command's code.  A command module imports at its top
the layers (core, construct, structure, search, satgen) that every
successful run of it uses, so they load while its command is parsed;
only what a run may skip is imported inside its `run`.  `gskit.cli_io`
holds the input and output the commands share.  No command module
imports this one: under `python -m gskit.cli` this file runs as
`__main__`, and an import of `gskit.cli` would compile and run a second
copy of it.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from importlib import import_module

from .values import MAX_CNF_CLAUSES, ParseError, PatternError, UsageError, WorkerError

# Each sub-command with its one-line help, in the order the root help lists
# them.  Its flags and its `run` are in the module gskit.cli_<name>.
_COMMANDS = {
    "verify": "check a partition against the constraints",
    "table": "print the closed-form maximal-order table",
    "construct": "build partitions from bases and mappings",
    "decompose": "peel a partition down to a base",
    "search": "exhaustive backtracking search",
    "cnf": "DIMACS CNF encoding and model decoding "
           f"(encode refused above {MAX_CNF_CLAUSES} clauses)",
}


def _err(message: str):
    print(message, file=sys.stderr)


def _drop_stdout():
    """The reader closed stdout (`gskit ... | head`): stop quietly.  Point
    stdout at devnull so a later flush of what is still buffered does not
    raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


class _Parser(argparse.ArgumentParser):
    """A parser that refuses its own leftover arguments, so a usage error
    names the parser (root or sub-command) that could not take them.
    `add_subparsers` gives every sub-parser this class too.

    A sub-command's parser is made with its name as `command` and empty:
    only when it is the one being parsed does it import gskit.cli_<command>,
    take that module's flags and set its `run` as `func`."""

    def __init__(self, *args, command=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._command = command

    def parse_known_args(self, args=None, namespace=None):
        if self._command is not None:
            module = import_module(f".cli_{self._command}", __package__)
            module.add_arguments(self)
            self.set_defaults(func=module.run)
            self._command = None
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gskit",
        description="Verify, construct, decompose, search, and encode "
        "sum-avoiding rainbow-free partitions of [1, n].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        sub.add_parser(name, help=text, command=name)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _drop_stdout()
        return 0
    except ParseError as e:
        _err(f"input error: {e}")
        return 2
    except PatternError as e:
        _err(f"structure error: {e}")
        return 1
    except (UsageError, ValueError, OSError, WorkerError) as e:
        _err(f"error: {e}")
        return 2


def run():
    """Run one command as its own process and exit with its code.

    Both entry points come here: `python -m gskit.cli` and the installed
    `gskit` script.  Once `main` has returned (or argparse has raised
    `SystemExit` for `--help` or a usage error, always with an int code),
    the process ends in the order of the interpreter's own shutdown: the
    atexit handlers, then a flush of stdout and stderr, then the exit with
    the code.  It skips only the teardown after those steps, in which
    CPython would clear every module and free every object still alive,
    which nothing gskit prints depends on.  A flush that meets a closed
    stdout stops quietly, as in `main`, and keeps `main`'s code.  An
    exception that `main` does not map to a code still leaves through the
    interpreter, with its traceback.  The exit is here, never in `main`,
    because the tests and the bench call `main` in-process many times.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
