"""The command table's argv reader against argparse, its oracle.

`_quick_args` must return either None or exactly the namespace that
`build_parser().parse_args` returns for the same argv.  Every argv it refuses
goes to argparse inside `main`, so `main` must exit or dispatch exactly as
argparse does.  The argv are generated from the table itself: every command
with its options in every order, with and without each optional option and
switch, and seeded malformed variants of those.
"""

import contextlib
import io
import random
from itertools import combinations, permutations

import pytest

from burnloc import cli

C2 = '{"kind":"cyclic","n":2}'
VALUES = (C2, "hyperelliptic-Z2", "a.json", "", "x=y", "0,1,0")


def _options(name):
    return cli._COMMON + cli._COMMANDS[name][2]


def _value(kind, rng):
    return rng.choice(kind) if isinstance(kind, tuple) else rng.choice(VALUES)


def _well_formed(rng):
    for name in cli._COMMANDS:
        options = _options(name)
        required = [o for o in options if o[1] == "required"]
        rest = [o for o in options if o[1] != "required"]
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                for order in permutations(required + list(extra)):
                    argv = [name]
                    for flag, kind, _ in order:
                        argv += [flag] if kind == "switch" else [flag, _value(kind, rng)]
                    yield argv


def _malformed(argv, rng):
    """Variants of a well-formed argv that the reader must refuse."""
    name, tokens = argv[0], argv[1:]
    options = _options(name)
    flags = [i for i, t in enumerate(tokens) if t.startswith("--")]
    yield tokens  # no command
    yield [*tokens[:2], name, *tokens[2:]]  # an option before the command
    yield [name, rng.choice(("-h", "--help")), *tokens]
    yield [name, "--bogus", *tokens]
    yield [name, "--no_banner", *tokens]
    yield [*argv, *rng.choice(options)[0:1]]  # an option with no value, or given twice
    yield [*argv, rng.choice(options)[0], rng.choice([o[0] for o in options])]  # a value equal to an option
    yield [*argv, "--json", "true"]  # a switch given a value, unless --json came already
    yield [*argv, "stray"]
    yield [*argv, "--"]
    if flags:
        i = rng.choice(flags)
        flag = tokens[i]
        yield [name, *tokens[:i], flag[:-1], *tokens[i + 1:]]  # abbreviated
        yield [name, *tokens[:i], flag, flag, *tokens[i + 1:]]
        kind = next(kind for f, kind, _ in options if f == flag)
        if kind != "switch":
            yield [name, *tokens[:i], f"{flag}={tokens[i + 1]}", *tokens[i + 2:]]
            yield [name, *tokens[:i + 1], rng.choice(("-1", "-x", "--x")), *tokens[i + 2:]]
            if kind != "required":
                yield [name, *tokens[:i + 1], "bogus", *tokens[i + 2:]]
            else:
                yield [name, *tokens[:i], *tokens[i + 2:]]  # a required option missing


def _argparse(parser, argv):
    """argparse's namespace, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _same(quick, expected):
    got = dict(vars(quick))
    want = dict(expected)
    return got.pop("fn") is want.pop("fn") and got == want


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(16)
    good = list(_well_formed(rng))
    # malformed variants of one order of each command's set of options
    orders = {}
    for argv in good:
        orders.setdefault((argv[0], frozenset(t for t in argv if t.startswith("--"))), []).append(argv)
    bad = [variant for argvs in orders.values() for variant in _malformed(rng.choice(argvs), rng)]
    return good, bad


def test_reader_reads_every_well_formed_argv_as_argparse_does(corpus):
    parser = cli.build_parser()
    good, _ = corpus
    assert len(good) > 1500
    for argv in good:
        quick = cli._quick_args(argv)
        assert quick is not None, argv
        assert _same(quick, _argparse(parser, argv)), argv


def test_refused_argv_take_argparse_exits_and_dispatch(corpus, monkeypatch):
    _, bad = corpus
    seen = []

    def stub(args):
        seen.append(dict(vars(args)))
        return 0

    # the handlers are stubbed in the table, and so in the parser built from
    # it, which main reuses rather than building one per argv
    for name, (_, help_, options) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (stub, help_, options))
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    exits = set()
    for argv in bad:
        quick = cli._quick_args(argv)
        expected = _argparse(parser, argv)
        if quick is not None:
            assert isinstance(expected, dict) and _same(quick, expected), argv
            continue
        seen.clear()
        got = _main(argv)
        if isinstance(expected, dict):
            # argparse accepts what the reader refused (an abbreviation, a
            # repeated option): main must dispatch argparse's namespace
            assert got == 0 and seen == [expected], argv
        else:
            assert got == expected, argv
            exits.add(expected[0])
    assert exits == {0, 2}
