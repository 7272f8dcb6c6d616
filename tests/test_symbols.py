import json

import pytest

from burnloc.abelian import abelian_structure
from burnloc.cli import main
from burnloc.catalog import CURVE, JACOBIAN, RULED_SURFACE, catalog_from_json, catalog_to_json
from burnloc.errors import ValidationError
from burnloc.groups import all_subgroups, build_group
from burnloc.models import BlowupCenter, ModelDescription, blowup
from burnloc.relations import structure
from burnloc.symbols import (
    BurnsideClass,
    Symbol,
    canonicalize,
    carrier_quotient,
    enumerate_symbols,
    stabilizer,
    text_form,
    validate_symbol,
)
from oracles import (
    all_coordinates,
    character_span,
    reference_check_record,
    reference_difference,
    reference_transport_symbol,
)
from scenarios import generated_catalog

S1 = Symbol("curve", (0, 1), (0,), "triv-C", ((1,), (1,)))


@pytest.mark.parametrize("catalog, label, problem", [
    ("hyper_cat", {"faithful": False, "trivial": True}, "genus >= 2 jacobian actions must be faithful"),
    ("elliptic_cat", {"faithful": True, "trivial": False},
     "genus-1 jacobian actions must come from a declared curve action"),
])
def test_enumeration_refuses_a_jacobian_label_the_catalog_check_refuses(request, z2, catalog, label, problem):
    # the enumerators read every Jacobian label; the catalog check, which runs
    # first, refuses one that is not faithful (genus >= 2) or not from a curve
    # action (genus 1)
    data = catalog_to_json(request.getfixturevalue(catalog))
    data["labels"].append({"id": "bad-J", "space": "jacobian", "group_shape": [2], **label})
    with pytest.raises(ValidationError) as exc:
        enumerate_symbols(z2, catalog_from_json(data))
    assert str(exc.value) == f"invalid catalog:\n  label 'bad-J': {problem}"


def test_involution_fixed_curve_symbol_is_valid(z2, hyper_cat):
    assert validate_symbol(S1, z2, hyper_cat) == []


def test_trivial_weight_is_rejected(z2, hyper_cat):
    bad = Symbol("curve", (0, 1), (0,), "triv-C", ((0,), (1,)))
    problems = validate_symbol(bad, z2, hyper_cat)
    assert any("nontrivial" in p for p in problems)


@pytest.mark.parametrize("weight", [(), (1, 0)], ids=["short", "long"])
def test_weights_of_the_wrong_length_are_refused_at_every_boundary(weight, z2, hyper_cat, tmp_path, capsys):
    # a weight is checked against the number of invariant factors before it is
    # reduced: reducing alone would drop the extra coordinate of (1, 0)
    message = "character coordinates do not match the structure"
    bad = Symbol("curve", (0, 1), (0,), "triv-C", (weight, (1,)))
    assert validate_symbol(bad, z2, hyper_cat) == [f"weights: {message}"]

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"terms": [{"coeff": 1, "symbol": {
        "kind": "curve", "h": [0, 1], "action": "triv-C", "weights": [list(weight), [1]]}}]}))
    b.write_text('{"terms": []}')
    code = main(["equal", "--group", '{"kind":"cyclic","n":2}', "--catalog", "hyperelliptic-Z2",
                 "--a", str(a), "--b", str(b)])
    assert code == 2 and f"weights: {message}" in capsys.readouterr().err

    model = ModelDescription(group=z2, catalog=hyper_cat)
    center = BlowupCenter(case=2, curve_label="triv-C", context_stabilizer=(0, 1), context_weight=weight)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        blowup(model, center)


S3_JSON = '{"kind": "perm", "degree": 3, "gens": [[1, 0, 2], [1, 2, 0]]}'
D4_JSON = '{"kind": "perm", "degree": 4, "gens": [[1, 2, 3, 0], [1, 0, 3, 2]]}'


def _exit_2_message(capsys, argv) -> str:
    assert main(argv) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("kind, stratum, action, weights", [
    ("curve", "fixed_curve", "triv-C", [[1], [1]]), ("surface", "ruled_divisor", "triv-CxP1", [[1]])])
def test_a_nonabelian_stabilizer_is_refused_as_such_at_every_boundary(kind, stratum, action, weights, s3, hyper_cat,
                                                                      tmp_path, capsys):
    # Z_G(H) holds H only for abelian H, so the stabilizer is refused before
    # its carrier quotient Z_G(H)/H is built
    h = list(s3.elements())  # S3 itself
    bad = Symbol(kind, tuple(h), (0,), action, tuple(map(tuple, weights)))
    assert validate_symbol(bad, s3, hyper_cat) == ["stabilizer must be abelian"]

    a = tmp_path / "a.json"
    a.write_text(json.dumps({"terms": [{"coeff": 1, "symbol": {
        "kind": kind, "h": h, "action": action, "weights": weights}}]}))
    err = _exit_2_message(capsys, ["equal", "--group", S3_JSON, "--catalog", "hyperelliptic-Z2",
                                   "--a", str(a), "--b", str(a)])
    assert err == "error: stabilizer must be abelian\n"

    model = tmp_path / "model.json"
    model.write_text(json.dumps({"group": json.loads(S3_JSON), "catalog": "hyperelliptic-Z2", "jacobian_factors": [],
                                 "strata": [{"kind": stratum, "stabilizer": h, "residual": action,
                                             "weights": weights}]}))
    err = _exit_2_message(capsys, ["class", "--model", str(model)])
    assert err == "error: invalid model:\n  stratum 0: stabilizer must be abelian\n"


@pytest.mark.parametrize("path", ["model-residual_group", "class-y_reps"])
def test_an_element_outside_the_group_is_named_as_such(path, tmp_path, capsys):
    # over D4 (order 8) 99 is no element at all; 3 is one, and the message for
    # an element of G outside the carrier is pinned in test_tables
    file = tmp_path / "input.json"
    if path == "model-residual_group":
        file.write_text(json.dumps({"group": json.loads(D4_JSON), "catalog": "hyperelliptic-Z2", "strata": [],
                                    "jacobian_factors": [{"stabilizer": [0], "residual": "triv-J",
                                                          "residual_group": [3, 99]}]}))
        err = _exit_2_message(capsys, ["class", "--model", str(file)])
        assert err == "error: invalid model:\n  jacobian factor 0: residual_group elements [99] outside the ambient group\n"
    else:
        file.write_text(json.dumps({"terms": [{"coeff": 1, "symbol": {
            "kind": "jac", "h": [0], "y_reps": [3, 99], "action": "triv-J"}}]}))
        err = _exit_2_message(capsys, ["equal", "--group", D4_JSON, "--catalog", "hyperelliptic-Z2",
                                       "--a", str(file), "--b", str(file)])
        assert err == "error: y_reps elements [99] outside the ambient group\n"


def test_surface_weight_must_generate_dual(z4, z4_cat):
    bad = Symbol("surface", (0, 1, 2, 3), (0,), "triv-CxP1", ((2,),))
    problems = validate_symbol(bad, z4, z4_cat)
    assert any("generate the full character group" in p for p in problems)
    good = Symbol("surface", (0, 1, 2, 3), (0,), "triv-CxP1", ((1,),))
    assert validate_symbol(good, z4, z4_cat) == []


def test_shape_mismatch_is_reported(z2, hyper_cat):
    bad = Symbol("jac", (0,), (0,), "inv-J")  # inv-J wants a C2 residual group
    problems = validate_symbol(bad, z2, hyper_cat)
    assert any("does not match declared shape" in p for p in problems)


# over C2xC4 (element 4a + b is (a, b)), with its generated catalog
ONE_CHECK_REFUSALS = {
    "a first weight too long": (Symbol("curve", (0, 1, 2, 3), (0,), "triv-C", ((1, 0), (1,))),
                                "weights: character coordinates do not match the structure"),
    "a last weight too long": (Symbol("curve", (0, 1, 2, 3), (0,), "triv-C", ((1,), (1, 0))),
                               "weights: character coordinates do not match the structure"),
    "a Y that is no subgroup": (Symbol("surface", (0, 4), (0, 1), "c2-CxP1", ((1,),)),
                                "residual group: subgroup not closed under inverse at 1"),
    "a Y of another shape": (Symbol("surface", (0, 2), (0, 1, 2, 3), "c4-CxP1", ((1,),)),
                             "residual group of order 4 does not match declared shape C4"),
    "a Y of another shape, as a list": (Symbol("surface", (0, 2), [3, 2, 1, 0], "c4-CxP1", ((1,),)),
                                        "residual group of order 4 does not match declared shape C4"),
}


@pytest.mark.parametrize("case", ONE_CHECK_REFUSALS)
def test_each_refusal_of_the_one_check_keeps_its_message_cold_and_warm(case):
    # the first check of a Y keeps its shape and of weights their dual generation; a
    # later check, and one after a whole pass, reads them and refuses with the same
    # message as the reference check
    sym, message = ONE_CHECK_REFUSALS[case]
    G = build_group({"kind": "abelian", "factors": [2, 4]})
    catalog = generated_catalog(G)
    record = stabilizer(G, sym.h, sym.kind)
    assert reference_check_record(sym, catalog.label(sym.action), record)[0] == [message]
    assert validate_symbol(sym, G, catalog) == validate_symbol(sym, G, catalog) == [message]
    structure(G, catalog)
    assert validate_symbol(sym, G, catalog) == [message]
    assert (tuple(sorted(sym.y)) in record.quotient.group.shapes) != (case == "a Y that is no subgroup")


def test_weight_swap_canonicalizes_identically(z3, z3_cat):
    a = Symbol("curve", (0, 1, 2), (0,), "triv-C", ((1,), (2,)))
    b = Symbol("curve", (0, 1, 2), (0,), "triv-C", ((2,), (1,)))
    assert canonicalize(a, z3, z3_cat) == canonicalize(b, z3, z3_cat)


def test_canonicalize_rejects_invalid(z2, hyper_cat):
    with pytest.raises(ValidationError, match="invalid symbol"):
        canonicalize(Symbol("curve", (0, 1), (0,), "triv-C", ((0,), (1,))), z2, hyper_cat)


def test_conjugate_stabilizers_collapse(s3, hyper_cat):
    # the three order-2 subgroups of the order-6 nonabelian group are conjugate
    c2s = [H for H in all_subgroups(s3) if H.order == 2]
    assert len(c2s) == 3
    forms = set()
    for H in c2s:
        sym = Symbol("curve", H.elements, (0,), "triv-C", ((1,), (1,)))
        forms.add(canonicalize(sym, s3, hyper_cat))
    assert len(forms) == 1


def test_canonicalize_is_idempotent_and_conjugation_invariant(s3, z3, hyper_cat, z3_cat):
    for G, cat in ((s3, hyper_cat), (z3, z3_cat)):
        for sym in enumerate_symbols(G, cat):
            assert canonicalize(sym, G, cat) == sym
            for g in G.elements():
                assert canonicalize(reference_transport_symbol(sym, g, G), G, cat) == sym


def test_enumeration_is_strictly_increasing(z2, z3, hyper_cat, z3_cat, elliptic_cat):
    for G, cat in ((z2, hyper_cat), (z2, elliptic_cat), (z3, z3_cat)):
        syms = enumerate_symbols(G, cat)
        keys = [s.key() for s in syms]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_involution_enumeration_golden(z2, hyper_cat):
    forms = [text_form(s, z2) for s in enumerate_symbols(z2, hyper_cat)]
    assert forms == [
        "curve[H=C2{0,1};Y=1{0};act=triv-C;w=(1),(1)]",
        "surface[H=C2{0,1};Y=1{0};act=triv-CxP1;w=(1)]",
        "jac[H=1{0};Y=1{0};act=triv-J]",
        "jac[H=1{0};Y=C2{0,1};act=inv-J]",
        "jac[H=C2{0,1};Y=1{0};act=triv-J]",
    ]


def test_trivial_group_enumeration(hyper_cat):
    G1 = build_group({"kind": "cyclic", "n": 1})
    syms = enumerate_symbols(G1, hyper_cat)
    assert all(s.kind == "jac" and s.h == (0,) and s.y == (0,) for s in syms)
    assert [s.action for s in syms] == ["triv-J"]


def brute_force_symbol_scan(G, catalog):
    """Oracle: every (H, Y, label, weights) tuple over ALL subgroups, not just
    conjugacy representatives."""
    out = set()
    space_of = {"curve": CURVE, "surface": RULED_SURFACE, "jac": JACOBIAN}
    for kind in ("curve", "surface", "jac"):
        for H in all_subgroups(G):
            if kind in ("curve", "surface") and (H.is_trivial() or not H.is_abelian()):
                continue
            if kind == "surface" and not H.is_cyclic():
                continue
            Q = carrier_quotient(G, H.elements, kind)
            for Y in all_subgroups(Q.group):
                for label in catalog.labels_in(space_of[kind]):
                    if kind == "jac":
                        candidates = [()]
                    else:
                        struct = abelian_structure(H)
                        chars = [b for b in all_coordinates(struct) if any(b)]
                        if kind == "curve":
                            candidates = [
                                (a, b)
                                for i, a in enumerate(chars)
                                for b in chars[i:]
                                if len(character_span(struct, a, b)) == H.order
                            ]
                        else:
                            candidates = [(b,) for b in chars if len(character_span(struct, b)) == H.order]
                    for weights in candidates:
                        sym = Symbol(kind, H.elements, Y.elements, label.id, weights)
                        if validate_symbol(sym, G, catalog) == []:
                            out.add(canonicalize(sym, G, catalog))
    return out


def test_enumeration_matches_brute_force_scan(z3, z3_cat, s3, hyper_cat):
    for G, cat in ((z3, z3_cat), (s3, hyper_cat)):
        assert set(enumerate_symbols(G, cat)) == brute_force_symbol_scan(G, cat)


def test_burnside_class_arithmetic(z2, hyper_cat):
    syms = enumerate_symbols(z2, hyper_cat)
    a = BurnsideClass.of(syms[0]) + BurnsideClass.of(syms[1], 2)
    b = a - BurnsideClass.of(syms[1], 2)
    assert b == BurnsideClass.of(syms[0])
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert a.coefficient(syms[1]) == 2
    assert a.columns({s: i for i, s in enumerate(syms)}) == {0: 1, 1: 2}
    # equal classes hash alike whatever order their terms were added in
    c = BurnsideClass.of(syms[1], 2) + BurnsideClass.of(syms[0]) + BurnsideClass.of(syms[2], 0)
    assert c == a and hash(c) == hash(a)
    assert {a, c, -a} == {a, -a}


def test_class_difference_matches_the_sum_with_the_negation(s3, hyper_cat):
    import random

    syms = enumerate_symbols(s3, hyper_cat)
    rng = random.Random(7)

    def draw():
        return BurnsideClass({s: rng.randint(-2, 2) for s in rng.sample(syms, rng.randint(0, len(syms)))})

    for _ in range(200):
        a, b = draw(), draw()
        diff = a - b
        assert diff == reference_difference(a, b)
        assert all(diff.coefficient(s) == a.coefficient(s) - b.coefficient(s) for s in syms)
        assert 0 not in dict(diff.terms()).values() and (a - a).is_zero()


def test_class_vector_rejects_foreign_symbol(z2, z3, hyper_cat, z3_cat):
    sym3 = enumerate_symbols(z3, z3_cat)[0]
    index = {s: i for i, s in enumerate(enumerate_symbols(z2, hyper_cat))}
    with pytest.raises(ValidationError, match="outside index"):
        BurnsideClass.of(sym3).columns(index)


def test_transport_fixes_action_labels(s3, hyper_cat):
    # labels denote abstract action classes: conjugation moves (H, Y, weights)
    # but never the label id
    for sym in enumerate_symbols(s3, hyper_cat):
        for g in s3.elements():
            moved = reference_transport_symbol(sym, g, s3)
            assert moved.action == canonicalize(moved, s3, hyper_cat).action == sym.action
