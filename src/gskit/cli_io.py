"""Input and output the CLI's commands share: reading a positional input,
choosing the criterion, and printing a coloring.

Only the commands that read an input or print a coloring import this
module; like every command module, it never imports `gskit.cli`.
"""

from __future__ import annotations

import os
import sys

from .values import Coloring, Kind, UsageError, to_file_form

_NAME_MAX = 255


def read_input(arg: str) -> str:
    # Every positional input (partition or solver model) goes through
    # here.  "-" and any existing path but a directory are read (a file, a
    # pipe such as <(...) or /dev/stdin, a device); anything else is handed
    # to the parser as inline text so errors name the offending position.
    # An argument is looked up as a path only when it could name one:
    # asking the OS about a longer single name fails with ENAMETOOLONG.
    if arg == "-":
        return sys.stdin.read()
    pathlike = "/" in arg or arg.endswith(".txt")
    if (pathlike or len(os.fsencode(arg)) <= _NAME_MAX) and os.path.exists(arg):
        if not os.path.isdir(arg):
            with open(arg) as f:
                return f.read()
        if pathlike:
            raise UsageError(f"is a directory: {arg!r}")
    elif pathlike:
        raise UsageError(f"no such file: {arg!r}")
    return arg


def resolve_kind(flag: str | None, declared: Kind | None) -> Kind:
    if flag is not None:
        return Kind(flag)
    if declared is not None:
        return declared
    return Kind.STRONG


def prints_compact(c: Coloring) -> bool:
    """Whether `print_coloring` prints `c` as a digit string."""
    return c.r <= 9 and max(c.colors) <= 9


def print_coloring(c: Coloring, kind: Kind):
    """Compact digit string when possible, explicit file form otherwise."""
    if prints_compact(c):
        print(c.compact())
    else:
        sys.stdout.write(to_file_form(c, kind))
