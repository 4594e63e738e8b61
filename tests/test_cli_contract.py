"""
The command-line contract: every leaf subcommand's arguments.

Each leaf of the parser is pinned by its positionals, in order, and by each
option's strings, dest, type, default, required flag and choices. Help text
is not part of the contract, and options may be declared in any order.
"""

from __future__ import annotations

import argparse

import pytest

from qlefschetz.cli import _build_parser

FORMAT = (("--format",), "format", None, "json", False, ("json", "table"))
OUTPUT = (("--output",), "output", None, None, False, None)
N_OVERRIDE = (("--n",), "n", int, None, False, None)


def required_int(name):
    return ((f"--{name}",), name, int, None, True, None)


CONTRACT = {
    "verify": ([("file", None)], {N_OVERRIDE, FORMAT, OUTPUT}),
    "compute": (
        [
            ("what", ("det", "nullspace", "monodromy", "givental", "classical", "double-cover")),
            ("file", None),
        ],
        {N_OVERRIDE, FORMAT, OUTPUT},
    ),
    "obstruct": ([("file", None)], {N_OVERRIDE, FORMAT, OUTPUT}),
    "move": (
        [("file", None), ("kind", ("hurwitz", "hurwitz-inverse", "rescale", "shift"))],
        {
            required_int("k"),
            (("--amount",), "amount", int, 1, False, None),
            N_OVERRIDE,
            FORMAT,
            OUTPUT,
        },
    ),
    "twist": (
        [("file", None), ("word", None)],
        {
            (("--target-index",), "target_index", int, None, False, None),
            (("--target-file",), "target_file", None, None, False, None),
            (("--generators-file",), "generators_file", None, None, False, None),
            N_OVERRIDE,
            FORMAT,
            OUTPUT,
        },
    ),
    "catalog milnor": (
        [],
        {
            required_int("r"),
            required_int("n"),
            (("--classes-output",), "classes_output", None, None, False, None),
            FORMAT,
            OUTPUT,
        },
    ),
    "catalog xab": ([], {required_int("a"), required_int("b"), required_int("n"), FORMAT, OUTPUT}),
    "catalog mirror-p2": ([], {required_int("n"), FORMAT, OUTPUT}),
    "catalog induce": (
        [],
        {
            (("--fibre",), "fibre", None, None, True, None),
            (("--classes",), "classes", None, None, True, None),
            required_int("n"),
            FORMAT,
            OUTPUT,
        },
    ),
}


def leaves(parser, path=()):
    """Yield (path, parser) for every parser without subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaves(child, path + (name,))


def contract(parser):
    positionals, options = [], set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = None if action.choices is None else tuple(action.choices)
        if action.option_strings:
            options.add(
                (
                    tuple(action.option_strings),
                    action.dest,
                    action.type,
                    action.default,
                    action.required,
                    choices,
                )
            )
        else:
            positionals.append((action.dest, choices))
    return positionals, options


LEAVES = dict(leaves(_build_parser()))


def test_leaf_subcommands():
    assert sorted(LEAVES) == sorted(CONTRACT)


@pytest.mark.parametrize("path", sorted(CONTRACT))
def test_leaf_arguments(path):
    assert contract(LEAVES[path]) == CONTRACT[path]
