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

This module holds only the entry points, the flag reader, the root
parser and the table of sub-commands, and imports no layer.  Each
sub-command's flags, caps and handler are in its own module,
`gskit.cli_<name>`, which is imported only when that sub-command is the
one given, so a command compiles no other command's code.  A command
module imports at its top the layers (core, construct, structure,
search, satgen) that every successful run of it uses, so they load while
its command is parsed; only what a run may skip is imported inside its
`run`.  `gskit.cli_io` holds the input and output the commands share.
No command module imports this one: under `python -m gskit.cli` this
file runs as `__main__`, and an import of `gskit.cli` would compile and
run a second copy of it.

Each flag is declared once, in its command module's `add_arguments`, and
argparse is the only source of help, usage and error text, but a command
line in the canonical form builds no argparse parser.  `main` first runs
the command's `add_arguments` against `_Flags`, a recorder of the calls,
which reads exact option names, each value in the next token, the
declared positionals, and the values' `type` and `choices` checks.  Only
when the recorder declines (help, a usage error, `--flag=value`, a prefix
of a flag, a value starting with `-`, a call it does not model) does
`main` import argparse and build the parser, which then reads the same
argv and prints what it always printed.
"""

from __future__ import annotations

import atexit
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .values import (MAX_CNF_CLAUSES, SUPPRESS, ParseError, PatternError, UsageError,
                     WorkerError)

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


class _Arg:
    """One argument a `_Flags` recorded: an option, a positional, or the
    word that picks a sub-parser (`parsers` maps each word to its flags)."""

    def __init__(self, dest, action, nargs, type, choices, default, required):
        self.dest, self.action, self.nargs = dest, action, nargs
        self.type, self.choices, self.default, self.required = type, choices, default, required
        self.parsers = {}

    def add_parser(self, name, argument_default=None, help=None, **more):
        self.parsers[name] = flags = _Flags(argument_default, **more)
        return flags

    def value(self, token):
        """`token` converted and checked as argparse would, or `_BAD`."""
        try:
            value = token if self.type is None else self.type(token)
        except (TypeError, ValueError):  # argparse's usage error
            return _BAD
        return _BAD if self.choices is not None and value not in self.choices else value


_BAD = object()


class _Group:
    """A mutually exclusive group: its flags are the parser's own.  argparse
    counts a member given only if its value is not its default, which is
    every value where the default is None, as for `construct`'s start."""

    def __init__(self, flags, required):
        self.flags, self.required, self.members = flags, required, []

    def add_argument(self, *names, **kwargs):
        self.members.append(self.flags.add_argument(*names, **kwargs))


class _Flags:
    """The arguments of one parser, recorded from the calls a command
    module's `add_arguments` makes, with argparse's defaults.  A call or
    keyword it does not model clears `plain`, and then `read` declines
    every argv."""

    def __init__(self, argument_default=None, **more):
        self.argument_default = argument_default
        self.plain = not more
        self.args, self.options, self.positionals = [], {}, []
        self.groups, self.defaults = [], {}

    def add_argument(self, *names, action="store", dest=None, nargs=None, type=None,
                     choices=None, required=None, help=None, metavar=None, **more):
        option = names[0][:1] == "-"
        if dest is None:
            dest = names[0].lstrip("-").replace("-", "_") if option else names[0]
        if "default" not in more and (dest in self.defaults or self.argument_default is not None):
            more["default"] = self.defaults.get(dest, self.argument_default)
        default = more.pop("default", False if action == "store_true" else None)
        if required is None:
            required = not option and nargs is None
        # What `read` does not model; argparse also converts the string
        # default of a typed argument that is not given.
        if (more or len(names) > 1 or action not in ("store", "store_true", "append")
                or nargs not in ((None,) if option else (None, "?"))
                or (type is not None and isinstance(default, str) and default != SUPPRESS)):
            self.plain = False
        arg = _Arg(dest, action, nargs, type, choices, default, required)
        if option:
            self.args.append(arg)
            self.options[names[0]] = arg
        else:
            self._add_positional(arg)
        return arg

    def _add_positional(self, arg):
        # Positionals are read in order, so one may follow only those that
        # take exactly one token.
        if any(p.nargs for p in self.positionals):
            self.plain = False
        self.args.append(arg)
        self.positionals.append(arg)

    def add_mutually_exclusive_group(self, required=False):
        group = _Group(self, required)
        self.groups.append(group)
        return group

    def add_subparsers(self, dest=None, required=False, **more):
        if dest is None or more:
            self.plain = False
        arg = _Arg(dest, "parsers", "A...", None, None, None, required)  # argparse's PARSER
        self._add_positional(arg)
        return arg

    def set_defaults(self, **defaults):
        self.defaults.update(defaults)
        for arg in self.args:
            if arg.dest in defaults:
                arg.default = defaults[arg.dest]

    def read(self, tokens):
        """The attributes argparse sets for `tokens`, or None unless the
        tokens are in the canonical form: exact option names, each value in
        the next token (not starting with `-` unless it is a lone `-`), the
        positionals in order, every check passing, and the required
        arguments and exclusive groups satisfied.  A repeated flag keeps its
        last value, and `append` collects them, as in argparse."""
        if not self.plain:
            return None
        values = {}
        for arg in self.args:
            if arg.default != SUPPRESS:
                values.setdefault(arg.dest, arg.default)
        for dest, value in self.defaults.items():
            values.setdefault(dest, value)
        seen = set()
        waiting = iter(self.positionals)
        rest = {}  # what the sub-parser a word picks reads from the tokens after it
        i = 0
        while i < len(tokens):
            token = tokens[i]
            i += 1
            arg = self.options.get(token)
            if arg is not None and arg.action == "store_true":
                value = True
            elif arg is not None:
                if i == len(tokens) or tokens[i][:1] == "-" != tokens[i]:
                    return None
                value = arg.value(tokens[i])
                i += 1
            elif token[:1] == "-" != token:
                return None
            else:
                arg = next(waiting, None)
                if arg is None:
                    return None
                if arg.action != "parsers":
                    value = arg.value(token)
                else:
                    flags = arg.parsers.get(token)
                    rest = None if flags is None else flags.read(tokens[i:])
                    if rest is None:
                        return None
                    value, i = token, len(tokens)
            if value is _BAD:
                return None
            seen.add(arg)
            if arg.action == "append":
                value = [*(values.get(arg.dest) or ()), value]
            values[arg.dest] = value
        values.update(rest)
        if any(a.required and a not in seen for a in self.args):
            return None
        for group in self.groups:
            given = sum(a in seen for a in group.members)
            if given > 1 or (group.required and not given):
                return None
        return values


def _declare(parser, command):
    """Import gskit.cli_<command>, add its flags to `parser` and set its
    `run` as `func`."""
    module = import_module(f".cli_{command}", __package__)
    module.add_arguments(parser)
    parser.set_defaults(func=module.run)


def _read(argv):
    """The namespace argparse would build for `argv`, read without it, or
    None where only argparse can answer."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _Flags()
    _declare(flags, argv[0])
    values = flags.read(argv[1:])
    return None if values is None else SimpleNamespace(**{"command": argv[0], **values})


def _build_parser():
    """The argparse parser, built only for an argv `_read` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """A parser that refuses its own leftover arguments, so a usage error
        names the parser (root or sub-command) that could not take them.
        `add_subparsers` gives every sub-parser this class too.  Built only
        by `_build_parser`, so argparse loads only for a command line that
        `_read` declines.

        A sub-command's parser is made with its name as `command` and empty:
        only when it is the one being parsed does it import gskit.cli_<command>,
        take that module's flags and set its `run` as `func`."""

        def __init__(self, *args, command=None, argument_default=None, **kwargs):
            # gskit.values.SUPPRESS equals argparse.SUPPRESS, which argparse
            # tests by identity.
            if argument_default == SUPPRESS:
                argument_default = argparse.SUPPRESS
            super().__init__(*args, argument_default=argument_default, **kwargs)
            self._command = command

        def parse_known_args(self, args=None, namespace=None):
            if self._command is not None:
                _declare(self, self._command)
                self._command = None
            args, extra = super().parse_known_args(args, namespace)
            if extra:
                self.error(f"unrecognized arguments: {' '.join(extra)}")
            return args, extra

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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
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
