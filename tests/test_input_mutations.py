"""Mutations of every JSON input, run through `main`: a seeded sample of
single-leaf mutations, and every member of every object misspelt.

The inputs are every fixture model, center and catalog, one class file and one
group description of each kind.  A mutant replaces one leaf (a scalar or an
empty list or object) by another JSON value, or deletes it.  Every mutant must
exit 0, 2 or 3 without a traceback.  Every leaf of these inputs that holds an
integer sits where the schema wants one, so a mutant that puts a non-integer
there must exit 2 and name the leaf's JSON path.  Every mutant also runs with
the reference of the one symbol check (`symbols._check_record`) and of the
class difference from `oracles` in place of the engine's, and must give the
same exit code, stdout and stderr byte for byte.
The sample is stratified: every input gets an equal share of it, so the model
and center inputs, whose mutants reach the symbol check and the class
difference, are not outnumbered by the larger catalogs; the test counts the
calls of both references and asserts that each is reached: the symbol check
at least 30 times, the class difference at least 5.

A misspelt member (any member of any object renamed with a trailing `_`) must
exit 2 and name the object's path, the misspelt member and, among the declared
members, the one it was renamed from: an optional member misspelt is not read
as absent.
"""

import copy
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import burnloc.fixtures
import burnloc.symbols
from burnloc.cli import main
from oracles import reference_check_record, reference_difference

FIXTURES = Path(burnloc.fixtures.__file__).parent
Z2 = '{"kind":"cyclic","n":2}'
REPLACEMENTS = (None, "x", -1, 99, [], {}, True, 0.5, [0], [[0]])
DELETE = object()
SAMPLE = 400


def _fixture(kind, name):
    return json.loads((FIXTURES / kind / f"{name}.json").read_text())


def _inputs():
    """(name, argv with "{file}" for the mutated input, its JSON) of every input."""
    catalog_groups = {"Z3-basic": '{"kind":"cyclic","n":3}'}
    for name in burnloc.fixtures.catalog_names():
        yield (f"catalog {name}", ("structure", "--group", catalog_groups.get(name, Z2), "--catalog", "{file}"),
               _fixture("catalogs", name))
    for name in burnloc.fixtures.model_names():
        yield f"model {name}", ("class", "--model", "{file}"), _fixture("models", name)
    for name in burnloc.fixtures.center_names():
        model = "elliptic-fixed-curve" if name == "elliptic-bullet1" else "elliptic-empty"
        yield f"center {name}", ("verify-blowup", "--model", model, "--center", "{file}"), _fixture("centers", name)
    curve = {"kind": "curve", "h": [0, 1], "y_reps": [0], "action": "triv-C", "weights": [[1], [1]]}
    jac = {"kind": "jac", "h": [0], "action": "triv-J"}
    yield ("class", ("phi", "--group", Z2, "--catalog", "hyperelliptic-Z2", "--class", "{file}"),
           {"terms": [{"coeff": 1, "symbol": curve}, {"coeff": 5, "symbol": jac}]})
    for group in ({"kind": "cyclic", "n": 2}, {"kind": "abelian", "factors": [2]},
                  {"kind": "table", "name": "C2", "mul": [[0, 1], [1, 0]]},
                  {"kind": "perm", "degree": 2, "gens": [[1, 0]]}):
        yield f"group {group['kind']}", ("structure", "--group", "{file}", "--catalog", "hyperelliptic-Z2"), group


def _leaves(value, path=""):
    """(path, key chain, value) of every scalar and every empty list or object."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            step = f"[{key}]" if isinstance(value, list) else (f".{key}" if path else key)
            for leaf_path, chain, leaf in _leaves(child, path + step):
                yield leaf_path, (key, *chain), leaf
    else:
        yield path, (), value


def _mutant(doc, chain, replacement):
    out = copy.deepcopy(doc)
    parent = out
    for key in chain[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[chain[-1]]
    else:
        parent[chain[-1]] = replacement
    return out


def _cases():
    """The mutants of each input, one list per input in `_inputs()` order."""
    for name, argv, doc in _inputs():
        yield [(name, argv, doc, path, chain, leaf, replacement)
               for path, chain, leaf in _leaves(doc) for replacement in (*REPLACEMENTS, DELETE)]


def _sample(per_input, rng):
    """SAMPLE cases, an equal share from each input (the first inputs take one
    more each while SAMPLE does not divide evenly)."""
    share, extra = divmod(SAMPLE, len(per_input))
    out = []
    for i, cases in enumerate(per_input):
        out += rng.sample(cases, share + (i < extra))
    return out


def test_sampled_single_leaf_mutants_exit_cleanly_and_name_their_path(capsys, tmp_path, monkeypatch):
    per_input = list(_cases())
    assert all(len(cases) > SAMPLE // len(per_input) for cases in per_input)
    sample = _sample(per_input, random.Random(20261019))
    assert len(sample) == SAMPLE
    calls = Counter()

    def counted(name, reference):
        def call(*args):
            calls[name] += 1
            return reference(*args)
        return call

    check_record = counted("_check_record", reference_check_record)
    difference = counted("difference", reference_difference)
    file = tmp_path / "input.json"
    named = 0
    for name, argv, doc, path, chain, leaf, replacement in sample:
        case = f"{name}: {path} = {'(deleted)' if replacement is DELETE else json.dumps(replacement)}"
        file.write_text(json.dumps(_mutant(doc, chain, replacement)))
        args = [str(file) if a == "{file}" else a for a in argv]
        try:
            code = main(args)
        except Exception as exc:  # a traceback the command line would print
            pytest.fail(f"{case}: raised {exc!r}")
        out, err = capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(burnloc.symbols, "_check_record", check_record)
            patch.setattr(burnloc.symbols.BurnsideClass, "__sub__", difference)
            assert (main(args), *capsys.readouterr()) == (code, out, err), case
        assert code in (0, 2, 3), case
        assert "Traceback" not in err, case
        if type(leaf) is int and replacement is not DELETE and type(replacement) is not int:
            assert code == 2 and f"{path}: expected an integer" in err, f"{case}: exit {code}, {err!r}"
            named += 1
    assert named > 0
    # a uniform sample of the 3,641 cases with the same seed reaches them 17 and 0 times
    assert calls["_check_record"] >= 30 and calls["difference"] >= 5, dict(calls)


def _objects(value, path="", chain=()):
    """(path, key chain, object) of every JSON object in value, value itself included."""
    if isinstance(value, dict):
        yield path, chain, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        step = f"[{key}]" if isinstance(value, list) else (f".{key}" if path else key)
        yield from _objects(child, path + step, (*chain, key))


def _misspelt(doc, chain, member):
    out = copy.deepcopy(doc)
    obj = out
    for key in chain:
        obj = obj[key]
    renamed = {f"{key}_" if key == member else key: child for key, child in obj.items()}
    obj.clear()
    obj.update(renamed)
    return out


def _member_inputs():
    """`_inputs()`, and a catalog that also holds the two object forms no fixture holds: a
    nonabelian `group_shape` and a `{"diff_order": m}` weight pattern."""
    yield from _inputs()
    catalog = _fixture("catalogs", "hyperelliptic-Z2")
    catalog["labels"] += [
        {"id": "coarse-CxP1", "space": "ruled_surface", "group_shape": {"order": 6, "abelian": False}},
        {"id": "c2-CxP1", "space": "ruled_surface", "group_shape": [2]},
    ]
    catalog["rules"]["induce"].append({"h": [2], "curve_label": "triv-C", "weights": {"diff_order": 2},
                                       "target": "c2-CxP1"})
    yield "catalog with object forms", ("structure", "--group", Z2, "--catalog", "{file}"), catalog


def test_every_misspelt_member_exits_2_naming_its_path_and_member(capsys, tmp_path):
    file = tmp_path / "input.json"
    cases = set()
    for name, argv, doc in _member_inputs():
        file.write_text(json.dumps(doc))
        assert main([str(file) if a == "{file}" else a for a in argv]) == 0, name
        capsys.readouterr()
        for path, chain, obj in _objects(doc):
            for member in obj:
                case = f"{name}: {path or '(document)'}: {member!r} misspelt"
                file.write_text(json.dumps(_misspelt(doc, chain, member)))
                code = main([str(file) if a == "{file}" else a for a in argv])
                err = capsys.readouterr()[1]
                assert code == 2 and "Traceback" not in err, f"{case}: exit {code}, {err!r}"
                where = re.escape(f": {path}: " if path else ": ")
                assert re.search(rf"{where}unknown member '{member}_' \(expected (\w+, )*{member}\b", err), \
                    f"{case}: {err!r}"
                cases.add(member)
    # every kind of object is reached: catalog, curve, label, shape, rules, model, stratum, center, class, group
    assert {"hyperelliptic", "faithful", "abelian", "diff_order", "genus_one_extension", "target_h", "counts",
            "weights", "residual_group", "context", "coeff", "y_reps", "n", "factors", "mul", "gens"} <= cases, cases
