"""Umbrella command line: ``idleclimb master|worker|sim ...``, and the
command parsing that each group's ``main`` shares."""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
from typing import Callable, Mapping, Sequence

_GROUPS = {"master": "master", "worker": "worker", "sim": "simharness"}

# Declares one command: calls the factory with ``add_parser``'s keyword
# arguments, adds the command's arguments to the parser it returns, and
# returns that parser.
Declare = Callable[[Callable[..., argparse.ArgumentParser]], argparse.ArgumentParser]


def parse_command(prog: str, description: str | None, commands: Mapping[str, Declare],
                  argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse ``argv`` as ``prog COMMAND ...``; ``command`` holds the name.

    A known command word builds that command's parser alone, named as its
    subparser would be.  Help, a missing or unknown command word, and an
    argument the command does not take build the whole subparser tree, whose
    text and exit codes they get.  Nothing is kept between calls."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in commands:
        name = argv[0]

        def make(**kwargs) -> argparse.ArgumentParser:
            kwargs.pop("help", None)  # the subparser tree's listing only
            return argparse.ArgumentParser(prog=f"{prog} {name}", **kwargs)

        args, extra = commands[name](make).parse_known_args(argv[1:])
        if not extra:
            args.command = name
            return args
    parser = argparse.ArgumentParser(prog=prog, description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, declare in commands.items():
        declare(functools.partial(sub.add_parser, name))
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: idleclimb {master|worker|sim} ...")
        print("  master  prepare, start, stop, inspect and report on a job directory")
        print("  worker  run the idle-time daemon or probe scheduling decisions")
        print("  sim     deterministic fleet simulation and efficiency sweeps")
        return 0 if argv else 2
    group = argv[0]
    if group not in _GROUPS:
        print(f"unknown command group {group!r}; expected master, worker or sim",
              file=sys.stderr)
        return 2
    return importlib.import_module(f".{_GROUPS[group]}", __package__).main(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
