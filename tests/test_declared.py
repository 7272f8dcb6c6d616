"""Declared symbol data: a class term of `equal`/`phi` and a stratum or Jacobian
factor of a model reach the same symbol check, so the same data give the same
canonical symbol by either route, and every single fault of either input exits
2 with the message pinned here."""

import json

import pytest

import burnloc.relations
import burnloc.symbols
from burnloc.catalog import catalog_from_json
from burnloc.cli import load_class, main
from burnloc.errors import ValidationError
from burnloc.fixtures import fixture_catalog
from burnloc.groups import build_group
from burnloc.models import ModelDescription, StratumDatum, class_of_action, validate_model
from burnloc.relations import structure
from burnloc.symbols import (
    KIND_CURVE,
    KIND_JAC,
    Symbol,
    canonicalize,
    carrier_quotient,
    enumerate_symbols,
    iter_curve_data,
    iter_jac_data,
    iter_surface_data,
    stabilizer,
    validate_symbol,
)
from scenarios import _datum, cyclic_table, dihedral_table, direct_product, generated_catalog, relabel

D4 = dihedral_table(4)  # r^i s^j is i + 4*j: rotations 0-3, reflections 4-7
D4_GROUP = json.dumps({"kind": "table", "mul": D4})


def _term(sym, G):
    y_reps = [carrier_quotient(G, sym.h, sym.kind).reps[i] for i in sym.y]
    return {"kind": sym.kind, "h": list(sym.h), "y_reps": y_reps, "action": sym.action,
            "weights": [list(w) for w in sym.weights]}


@pytest.mark.parametrize("name, table", [
    ("D4xC2", direct_product(D4, cyclic_table(2))),
    ("C4xC4", direct_product(cyclic_table(4), cyclic_table(4))),
    ("D4xC2 relabelled", relabel(direct_product(D4, cyclic_table(2)), 5)),
])
def test_a_symbol_as_model_datum_and_as_class_term_gives_one_canonical_symbol(name, table):
    # each route on a group of its own, so that neither reads the other's resolved residual groups
    G, G_model, G_class = (build_group({"kind": "table", "mul": table}) for _ in range(3))
    catalog = generated_catalog(G)
    forms = {}  # the enumerator's memo: each raw symbol's canonical form
    symbols = enumerate_symbols(G, catalog, forms)
    raws = [*iter_curve_data(G, catalog), *iter_surface_data(G, catalog), *iter_jac_data(G, catalog)]
    assert len({sym.kind for sym in raws}) == 3
    for sym in raws:
        expected = forms[sym]
        datum = _datum(G, sym)
        data = {"jacobian_factors": (datum,)} if sym.kind == KIND_JAC else {"strata": (datum,)}
        assert class_of_action(ModelDescription(G_model, catalog, **data)).support() == (expected,), sym
        terms = json.dumps({"terms": [{"symbol": _term(sym, G)}]})
        assert load_class(terms, G_class, catalog).support() == (expected,), sym
    assert set(map(forms.get, raws)) == set(symbols)


# a genus-2 catalog over D4; it declares no rule for c2-C, so a class over it reaches no relation
CATALOG = {
    "curve": {"id": "C-gen2", "genus": 2, "hyperelliptic": False},
    "labels": [
        {"id": "triv-C", "space": "curve", "group_shape": [], "trivial": True},
        {"id": "c2-C", "space": "curve", "group_shape": [2]},
        {"id": "triv-CxP1", "space": "ruled_surface", "group_shape": [], "trivial": True},
        {"id": "triv-J", "space": "jacobian", "group_shape": [], "trivial": True, "from_curve": True,
         "underlying_curve_action": "triv-C"},
        {"id": "c2-J", "space": "jacobian", "group_shape": [2], "from_curve": True,
         "underlying_curve_action": "c2-C"},
    ],
    "rules": {"induce": [], "jacobian_of_curve": [{"source": "triv-C", "target": "triv-J"},
                                                  {"source": "c2-C", "target": "c2-J"}]},
}
# valid symbols over D4: the reflection subgroup {0, 4} has centralizer {0, 2, 4, 6}, whose
# quotient is C2 with the rotation 2 in its other coset; the rotations {0, 1, 2, 3} are their own
# centralizer
CURVE = {"kind": "curve", "h": [0, 4], "y_reps": [2], "action": "c2-C", "weights": [[1], [1]]}
CYCLIC4 = {"kind": "curve", "h": [0, 1, 2, 3], "y_reps": [0], "action": "triv-C", "weights": [[1], [1]]}
SURFACE = {"kind": "surface", "h": [0, 4], "action": "triv-CxP1", "weights": [[1]]}
JAC = {"kind": "jac", "h": [0, 4], "y_reps": [2], "action": "c2-J"}

# (base, changed members, message) for one fault of a class term each
TERM_FAULTS = [
    (CURVE, {"kind": "foo"}, "unknown symbol kind 'foo'"),
    (CURVE, {"action": "nope"}, "unknown action label 'nope'"),
    (CURVE, {"action": "c2-J"}, "cannot canonicalize invalid symbol: label 'c2-J' lives on jacobian, not curve"),
    (CURVE, {"action": "triv-C"},
     "cannot canonicalize invalid symbol: residual group of order 2 does not match declared shape 1"),
    (CURVE, {"h": [1, 4]}, "subgroup must contain the identity"),
    (CURVE, {"h": [0, 4, 99]}, "element 99 outside the ambient group"),
    (CURVE, {"h": [0, 1]}, "subgroup not closed under inverse at 1"),
    (CURVE, {"h": list(range(8))}, "stabilizer must be abelian"),
    (CURVE, {"h": [0]}, "cannot canonicalize invalid symbol: stabilizer must be nontrivial"),
    (CURVE, {"y_reps": [99]}, "y_reps elements [99] outside the ambient group"),
    (CURVE, {"y_reps": [1]}, "y_reps elements [1] do not centralize/normalize the stabilizer (0, 4)"),
    (CURVE, {"y_reps": [0]},
     "cannot canonicalize invalid symbol: residual group of order 1 does not match declared shape C2"),
    (CURVE, {"weights": [[1]]}, "cannot canonicalize invalid symbol: curve symbols carry exactly 2 weight(s)"),
    (CURVE, {"weights": [[1], [1], [1]]},
     "cannot canonicalize invalid symbol: curve symbols carry exactly 2 weight(s)"),
    (CURVE, {"weights": [[1], [0]]}, "cannot canonicalize invalid symbol: weights must be nontrivial characters"),
    (CURVE, {"weights": [[1, 0], [1]]}, "cannot canonicalize invalid symbol: weights: character coordinates do not match the structure"),
    (CYCLIC4, {"weights": [[2], [2]]},
     "cannot canonicalize invalid symbol: weights must generate the full character group of the stabilizer"),
    (SURFACE, {"h": [0, 2, 4, 6], "weights": [[1, 1]]}, "cannot canonicalize invalid symbol: weights must generate the full character group of the stabilizer; "
     "surface symbols need a cyclic stabilizer"),
    (JAC, {"weights": [[1]]}, "cannot canonicalize invalid symbol: jacobian symbols carry no weights"),
]

FIXED = {"kind": "fixed_curve", "stabilizer": [0, 4], "residual": "c2-C", "weights": [[1], [1]],
         "residual_group": [0, 2, 4, 6]}
FIXED4 = {"kind": "fixed_curve", "stabilizer": [0, 1, 2, 3], "residual": "triv-C", "weights": [[1], [1]]}
RULED = {"kind": "ruled_divisor", "stabilizer": [0, 4], "residual": "triv-CxP1", "weights": [[1]]}
FACTOR = {"stabilizer": [0, 4], "residual": "c2-J", "residual_group": [0, 2, 4, 6]}

# (base, changed members, message) for one fault of a model datum each; a base with a "kind"
# is a stratum, one without a Jacobian factor.  A stratum of unknown kind is named as such
# whatever its number of weights.
DATUM_FAULTS = [
    (RULED, {"kind": "bogus"}, "stratum 0: unknown stratum kind 'bogus'"),
    (FIXED, {"kind": "bogus"}, "stratum 0: unknown stratum kind 'bogus'"),
    (FIXED, {"residual": "nope"}, "stratum 0: unknown action label 'nope'"),
    (FIXED, {"residual": "c2-J"}, "stratum 0: invalid stratum datum: label 'c2-J' lives on jacobian, not curve"),
    (FIXED, {"residual": "triv-C"},
     "stratum 0: invalid stratum datum: residual group of order 2 does not match declared shape 1"),
    (FIXED, {"stabilizer": [1, 4]}, "stratum 0: subgroup must contain the identity"),
    (FIXED, {"stabilizer": [0, 4, 99]}, "stratum 0: element 99 outside the ambient group"),
    (FIXED, {"stabilizer": [0, 1]}, "stratum 0: subgroup not closed under inverse at 1"),
    (FIXED, {"stabilizer": list(range(8))}, "stratum 0: stabilizer must be abelian"),
    (FIXED, {"stabilizer": [0], "residual_group": [0, 2]},
     "stratum 0: invalid stratum datum: stabilizer must be nontrivial"),
    (FIXED, {"residual_group": [0, 99]}, "stratum 0: residual_group elements [99] outside the ambient group"),
    (FIXED, {"residual_group": [0, 1]},
     "stratum 0: residual_group elements [1] do not centralize/normalize the stabilizer (0, 4)"),
    (FIXED, {"residual_group": [0, 4]},
     "stratum 0: invalid stratum datum: residual group of order 1 does not match declared shape C2"),
    (FIXED4, {"residual": "c2-C"}, "stratum 0: no residual subgroup of shape C2 exists for stabilizer (0, 1, 2, 3)"),
    (FIXED, {"stabilizer": [0, 2], "residual_group": None},
     "stratum 0: residual group for label 'c2-C' over stabilizer (0, 2) is ambiguous; "
     "declare residual_group explicitly"),
    (FIXED, {"weights": [[1]]}, "stratum 0: invalid stratum datum: curve symbols carry exactly 2 weight(s)"),
    (RULED, {"weights": [[1], [1]]}, "stratum 0: invalid stratum datum: surface symbols carry exactly 1 weight(s)"),
    (FIXED, {"weights": [[1], [0]]}, "stratum 0: invalid stratum datum: weights must be nontrivial characters"),
    (FIXED, {"weights": [[1, 0], [1]]}, "stratum 0: invalid stratum datum: weights: character coordinates do not match the structure"),
    (FIXED4, {"weights": [[2], [2]]},
     "stratum 0: invalid stratum datum: weights must generate the full character group of the stabilizer"),
    (RULED, {"stabilizer": [0, 2, 4, 6], "weights": [[1, 1]]}, "stratum 0: invalid stratum datum: weights must generate the full character group of the "
     "stabilizer; surface symbols need a cyclic stabilizer"),
    (FACTOR, {"residual": "nope"}, "jacobian factor 0: unknown action label 'nope'"),
    (FACTOR, {"residual": "c2-C"},
     "jacobian factor 0: invalid jacobian factor datum: label 'c2-C' lives on curve, not jacobian"),
    (FACTOR, {"stabilizer": [1, 4]}, "jacobian factor 0: subgroup must contain the identity"),
    (FACTOR, {"residual_group": [0, 1]},
     "jacobian factor 0: residual_group elements [1] do not centralize/normalize the stabilizer (0, 4)"),
]


def _changed(base, changes):
    out = {**base, **changes}
    return {key: value for key, value in out.items() if value is not None}


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().err


def _phi(term, catalog_file):
    return ["phi", "--group", D4_GROUP, "--catalog", str(catalog_file), "--class",
            json.dumps({"terms": [{"symbol": term}]})]


def _class(datum):
    data = {"jacobian_factors": [datum]} if "kind" not in datum else {"strata": [datum]}
    return ["class", "--model", json.dumps({"group": {"kind": "table", "mul": D4}, "catalog": CATALOG, **data})]


def test_the_valid_bases_load():
    G = build_group(json.loads(D4_GROUP))
    catalog = catalog_from_json(CATALOG)
    for term in (CURVE, CYCLIC4, SURFACE, JAC):
        assert len(load_class(json.dumps({"terms": [{"symbol": term}]}), G, catalog).support()) == 1
    for datum in (FIXED, FIXED4, RULED, FACTOR):
        assert main(_class(datum)) == 0


@pytest.mark.parametrize("base, changes, message", TERM_FAULTS, ids=[str(c) for _, c, _ in TERM_FAULTS])
def test_each_single_fault_of_a_class_term_exits_2_with_its_message(capsys, tmp_path, base, changes, message):
    catalog_file = tmp_path / "catalog.json"
    catalog_file.write_text(json.dumps(CATALOG))
    assert _run(capsys, _phi(_changed(base, changes), catalog_file)) == (2, f"error: {message}\n")


@pytest.mark.parametrize("base, changes, message", DATUM_FAULTS, ids=[str(c) for _, c, _ in DATUM_FAULTS])
def test_each_single_fault_of_a_model_datum_exits_2_with_its_message(capsys, base, changes, message):
    assert _run(capsys, _class(_changed(base, changes))) == (2, f"error: invalid model:\n  {message}\n")


@pytest.mark.parametrize("group, h, y_reps", [
    ({"kind": "cyclic", "n": 2}, [0, 1], [0]),
    ({"kind": "cyclic", "n": 2}, [0, 1], [99]),
    ({"kind": "perm", "degree": 3, "gens": [[1, 0, 2], [1, 2, 0]]}, list(range(6)), [0]),  # S3, nonabelian
])
def test_a_class_term_of_unknown_kind_is_refused_before_any_lookup(group, h, y_reps):
    G = build_group(group)
    term = {"kind": "foo", "h": h, "y_reps": y_reps, "action": "triv-C", "weights": [[1], [1]]}
    with pytest.raises(ValidationError) as exc:
        load_class(json.dumps({"terms": [{"symbol": term}]}), G, fixture_catalog("hyperelliptic-Z2"))
    assert str(exc.value) == "unknown symbol kind 'foo'"
    assert not G.carriers


def test_every_symbol_the_enumerators_did_not_build_reaches_the_one_check(monkeypatch):
    # over D4 x C2 a relation term that misses the pass's memo, a class term, a
    # model datum and a library call of canonicalize or validate_symbol each
    # reach `_check_record` with the label and stabilizer record of their
    # symbol, and every route looks the label up before the stabilizer
    G = build_group({"kind": "table", "mul": direct_product(D4, cyclic_table(2))})
    catalog = generated_catalog(G)
    check, canon = burnloc.symbols._check_record, burnloc.relations.canonicalize
    checks, misses = [], []

    def counted_check(sym, label, record):
        assert label is catalog.label(sym.action) and record is stabilizer(G, sym.h, sym.kind)
        checks.append(sym)
        return check(sym, label, record)

    def counted_canon(sym, *args):
        misses.append(sym)
        return canon(sym, *args)

    monkeypatch.setattr(burnloc.symbols, "_check_record", counted_check)
    monkeypatch.setattr(burnloc.relations, "canonicalize", counted_canon)  # the name the pass calls
    structure(G, catalog)
    assert misses and checks == misses
    # a relation term the enumerators built raw is read off the pass's memo
    raws = {*iter_curve_data(G, catalog), *iter_surface_data(G, catalog), *iter_jac_data(G, catalog)}
    assert raws.isdisjoint(misses)
    sym = next(iter_curve_data(G, catalog))
    routes = {
        "class term": lambda: load_class(json.dumps({"terms": [{"symbol": _term(sym, G)}]}), G, catalog),
        "model datum": lambda: class_of_action(ModelDescription(G, catalog, strata=(_datum(G, sym),))),
        "canonicalize": lambda: canonicalize(sym, G, catalog),
        "validate_symbol": lambda: validate_symbol(sym, G, catalog),
    }
    for name, route in routes.items():
        checks.clear()
        route()
        assert checks == [sym], name

    # (0, 2) is not a subgroup (2 has order 4), and the label is unknown
    bad = Symbol(KIND_CURVE, (0, 2), (0,), "nope", ((1,), (1,)))
    term = {"kind": "curve", "h": [0, 2], "y_reps": [0], "action": "nope", "weights": [[1], [1]]}
    for refuse in (lambda: canonicalize(bad, G, catalog),
                   lambda: load_class(json.dumps({"terms": [{"symbol": term}]}), G, catalog)):
        with pytest.raises(ValidationError, match="^unknown action label 'nope'$"):
            refuse()
    assert validate_symbol(bad, G, catalog) == ["unknown action label 'nope'"]
    datum = StratumDatum("fixed_curve", (0, 2), "nope", ((1,), (1,)))
    assert validate_model(ModelDescription(G, catalog, strata=(datum,))) == ["stratum 0: unknown action label 'nope'"]
