"""Command-line front end: JSON in, deterministic text or JSON reports out.

Exit codes: 0 success, 2 validation error (including bad usage), 3 catalog
incomplete.  Identical inputs produce byte-identical reports, modulo the
version banner (suppressible with --no-banner; JSON output never carries it).

Each subcommand, with its handler, options and help, is declared once in the
command table `_COMMANDS`.  A well-formed argv (the command, then exact option
strings of the table, each once with one value) is read straight off the table;
argparse is imported, and its parser built from the table, only for `--help`
and anything else, so help and usage errors keep argparse's text and exit
codes (0 for help, 2 for a usage error).

The model layer is imported by the commands that use it (`class`,
`invariant --model`, `verdict`, `verify-blowup`), so `structure`, `relations`,
`equal`, `phi` and `invariant --counts` run without it.

A `burnloc` process enters through `run`; `main` is the in-process entry
(tests, the benchmark's traced runs) and leaves the garbage collector alone.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .catalog import ActionCatalog, catalog_from_json, ensure_valid_catalog
from .errors import CatalogIncompleteError, JSONValue, ValidationError, read_json
from .fixtures import (
    catalog_names,
    center_names,
    fixture_catalog,
    fixture_center,
    fixture_model,
    model_names,
)
from .groups import FiniteGroup, build_group
from .relations import (
    NO_OBSTRUCTION,
    OBSTRUCTED,
    FilterSpec,
    classes_equal,
    filter_project,
    filtered_structure,
    generate_relations,
    invariant_I,
    phi_G,
    relation_lattice,
    structure,
)
from .symbols import BurnsideClass, declared_symbol, text_form


def _load_json_arg(arg: str, kind: str = "", names=None) -> dict:
    """The JSON document in the file `arg`, or `arg` itself as inline JSON if it
    starts with '{'.  Anything else is a ValidationError; for an argument that
    may also name a fixture, it names the kind and lists `names()`.  A file
    that is not UTF-8 or a document that does not parse (too deep, or with an
    integer of too many digits) is a ValidationError naming the file, or
    inline JSON."""
    is_file = os.path.exists(arg)
    if not is_file and not arg.strip().startswith("{"):
        if names is None:
            raise ValidationError(f"not a file or inline JSON object: {arg!r}")
        raise ValidationError(f"unknown {kind} fixture or file {arg!r}; available fixtures: {', '.join(names())}")
    try:
        if is_file:
            with open(arg, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(arg.strip())
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        source = f"JSON file {arg!r}" if is_file else "inline JSON"
        raise ValidationError(f"cannot read {source}: {exc}") from None


def load_group(arg: str) -> FiniteGroup:
    return build_group(_load_json_arg(arg))


def load_catalog(arg: str) -> ActionCatalog:
    if arg in catalog_names():
        return fixture_catalog(arg)
    data = _load_json_arg(arg, "catalog", catalog_names)
    return ensure_valid_catalog(catalog_from_json(data, name=arg))


def load_model(arg: str):
    if arg in model_names():
        return fixture_model(arg)
    from .models import model_from_json

    data = _load_json_arg(arg, "model", model_names)
    return model_from_json(data, fixture_catalog)


def load_center(arg: str):
    if arg in center_names():
        return fixture_center(arg)
    from .models import center_from_json

    data = _load_json_arg(arg, "center", center_names)
    return center_from_json(data)


_SYMBOL = (("kind", JSONValue.string), ("h", JSONValue.integers), ("y_reps", JSONValue.integers, (0,)),
           ("action", JSONValue.string), ("weights", JSONValue.rows, ()))
_TERM = (("coeff", JSONValue.integer, 1), ("symbol", lambda symbol: symbol.members(_SYMBOL)))
_CLASS = (("terms", JSONValue.items, ()),)


def load_class(arg: str, G: FiniteGroup, catalog: ActionCatalog) -> BurnsideClass:
    (terms,) = read_json(_load_json_arg(arg), "malformed class JSON").members(_CLASS)
    total = BurnsideClass.zero()
    for term in terms:
        coeff, (kind, h, y_reps, action, weights) = term.members(_TERM)
        sym = declared_symbol(G, catalog, kind, h, action, y_reps, weights, "y_reps",
                              "cannot canonicalize invalid symbol")
        total = total + BurnsideClass.of(sym, coeff)
    return total


def _class_json(cls: BurnsideClass, G: FiniteGroup) -> list[dict]:
    return [{"symbol": text_form(s, G), "coeff": c} for s, c in cls.terms()]


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if not args.no_banner:
            print(f"burnloc {__version__}")
        for line in text_lines:
            print(line)


def _cmd_structure(args) -> int:
    G = load_group(args.group)
    catalog = load_catalog(args.catalog)
    if args.filter == "max-stabilizer":
        result = filtered_structure(G, catalog, FilterSpec.max_stabilizer(G))
    else:
        result = structure(G, catalog)
    payload = result.to_json()
    torsion = ", ".join(map(str, result.torsion)) or "(none)"
    _emit(args, payload, [f"free rank: {result.free_rank}", f"torsion: {torsion}"])
    return 0


def _cmd_relations(args) -> int:
    G = load_group(args.group)
    catalog = load_catalog(args.catalog)
    relations = generate_relations(G, catalog)
    by_rule: dict[str, int] = {}
    for rel in relations:
        by_rule[rel.rule] = by_rule.get(rel.rule, 0) + 1
    if args.dump:
        payload = {
            "relations": [
                {
                    "rule": rel.rule,
                    "params": dict(rel.params),
                    "terms": _class_json(rel.vector, G),
                }
                for rel in relations
            ]
        }
        lines = [rel.describe(G) for rel in relations]
    else:
        payload = {"count": len(relations), "by_rule": by_rule}
        lines = [f"relations: {len(relations)}"] + [
            f"  {rule}: {count}" for rule, count in sorted(by_rule.items())
        ]
    _emit(args, payload, lines)
    return 0


def _cmd_class(args) -> int:
    from .models import class_of_action

    m = load_model(args.model)
    cls = class_of_action(m)
    payload = {"model": m.name or "(inline)", "class": _class_json(cls, m.group)}
    lines = [f"{c:+d} {text_form(s, m.group)}" for s, c in cls.terms()] or ["0"]
    _emit(args, payload, lines)
    return 0


def _cmd_equal(args) -> int:
    G = load_group(args.group)
    catalog = load_catalog(args.catalog)
    a = load_class(args.a, G, catalog)
    b = load_class(args.b, G, catalog)
    lattice = relation_lattice(G, catalog)
    result = classes_equal(a, b, lattice)
    _emit(args, {"equal": result}, ["true" if result else "false"])
    return 0


def _parse_counts(raw: str) -> tuple[int, int, int]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValidationError("--counts takes three comma-separated integers, e.g. 0,1,0")
    # ASCII digits with an optional leading '-': int() alone also reads
    # '1_0', ' +0' and the digits of other scripts
    if not all(p.isascii() and p.removeprefix("-").isdigit() for p in parts):
        raise ValidationError(f"--counts entries must be integers: {raw!r}")
    return tuple(map(int, parts))


def _cmd_invariant(args) -> int:
    if (args.counts is None) == (args.model is None):
        raise ValidationError("invariant takes exactly one of --counts or --model")
    if args.counts is not None:
        i1, i2, i3 = _parse_counts(args.counts)
    else:
        from .models import invariant_counts

        i1, i2, i3 = invariant_counts(load_model(args.model))
    value = invariant_I(i1, i2, i3)
    obstructed = value != 0
    payload = {"I1": i1, "I2": i2, "I3": i3, "I": value, "obstructed": obstructed}
    lines = [
        f"counts: I1={i1} I2={i2} I3={i3}",
        f"I = -I1 - 2*I2 + I3 = {value}",
        f"verdict: {OBSTRUCTED if obstructed else NO_OBSTRUCTION}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_verdict(args) -> int:
    from .models import verdict

    report = verdict(load_model(args.model))
    _emit(args, report.to_json(), report.to_text().splitlines())
    return 0


def _cmd_verify_blowup(args) -> int:
    from .models import verify_blowup_invariance

    m = load_model(args.model)
    center = load_center(args.center)
    holds = verify_blowup_invariance(m, center)
    _emit(args, {"holds": holds}, ["true" if holds else "false"])
    return 0


def _cmd_phi(args) -> int:
    G = load_group(args.group)
    catalog = load_catalog(args.catalog)
    cls = load_class(getattr(args, "class"), G, catalog)
    projected = filter_project(cls, FilterSpec.max_stabilizer(G), G, catalog)
    value = phi_G(projected, G, catalog)
    payload = {"phi": value, "filtered_class": _class_json(projected, G)}
    _emit(args, payload, [f"phi = {value}"])
    return 0


# Every subcommand once: its handler, its help line and its options, each an
# (option string, kind, help) triple whose kind is "required", "optional",
# "switch" (a store_true flag) or the tuple of its value's choices.  Every
# subcommand takes the _COMMON switches ahead of its own options.
_COMMON = (
    ("--json", "switch", "emit a JSON report instead of text"),
    ("--no-banner", "switch", "suppress the version banner in text output"),
)
_COMMANDS = {
    "structure": (_cmd_structure, "free rank and torsion of the symbol group modulo relations", (
        ("--group", "required", 'group JSON (file, inline, e.g. {"kind":"cyclic","n":2})'),
        ("--catalog", "required", "catalog fixture name or JSON file"),
        ("--filter", ("max-stabilizer",), "restrict to maximal-stabilizer symbols"),
    )),
    "relations": (_cmd_relations, "generated relation instances with provenance", (
        ("--group", "required", None),
        ("--catalog", "required", None),
        ("--dump", "switch", "emit every relation instance"),
    )),
    "class": (_cmd_class, "class of a model as a symbol combination", (
        ("--model", "required", "model fixture name or JSON file"),
    )),
    "equal": (_cmd_equal, "decide equality of two classes modulo relations", (
        ("--group", "required", None),
        ("--catalog", "required", None),
        ("--a", "required", "class JSON file"),
        ("--b", "required", "class JSON file"),
    )),
    "invariant": (_cmd_invariant, "the counts invariant I = -I1 - 2*I2 + I3", (
        ("--counts", "optional", "I1,I2,I3"),
        ("--model", "optional", "model fixture name or JSON file"),
    )),
    "verdict": (_cmd_verdict, "full linearizability obstruction report for a model", (
        ("--model", "required", None),
    )),
    "verify-blowup": (_cmd_verify_blowup, "check class invariance under a blow-up center", (
        ("--model", "required", None),
        ("--center", "required", "center fixture name or JSON file"),
    )),
    "phi": (_cmd_phi, "degree map on the maximal-stabilizer projection of a class", (
        ("--group", "required", None),
        ("--catalog", "required", None),
        ("--class", "required", "class JSON file"),
    )),
}


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of the command table: the `--help` and usage-error path."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="burnloc",
        description="Exact calculator for curve-localized equivariant Burnside groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        for flag, kind, text in _COMMON + options:
            if kind == "switch":
                p.add_argument(flag, action="store_true", help=text)
            else:
                choices = None if isinstance(kind, str) else kind
                p.add_argument(flag, required=kind == "required", choices=choices, help=text)
    return parser


def _quick_args(argv: list[str]):
    """The namespace `build_parser().parse_args(argv)` gives, read off the table, or
    None unless argv is the command, then exact option strings of the table, each
    once and followed by one value that does not start with '-' (one of its
    choices, if it has any), with every required option given."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, options = _COMMANDS[argv[0]]
    spec = {flag: (flag[2:].replace("-", "_"), kind) for flag, kind, _ in _COMMON + options}
    values = {dest: False if kind == "switch" else None for dest, kind in spec.values()}
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in spec or flag in seen:
            return None
        seen.add(flag)
        dest, kind = spec[flag]
        if kind == "switch":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is refused like an option
        if value.startswith("-") or not isinstance(kind, str) and value not in kind:
            return None
        values[dest] = value
    if any(kind == "required" and flag not in seen for flag, (_, kind) in spec.items()):
        return None
    return SimpleNamespace(command=argv[0], fn=fn, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _quick_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CatalogIncompleteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry: `main` with the cyclic garbage collector off, and
    everything alive frozen on every way out (argparse's SystemExit included).

    A command makes next to no cyclic garbage, and the interpreter's exit
    would otherwise traverse every live object in full collections.  The
    process still exits as usual: streams are flushed and atexit handlers
    run.  `main` keeps the collector, since a `FiniteGroup` and its tables are
    reference cycles that only the collector frees."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
