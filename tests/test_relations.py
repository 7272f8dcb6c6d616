import json
import random
from collections import Counter

import pytest

import burnloc.relations
import burnloc.symbols
from burnloc.catalog import catalog_from_json, ensure_valid_catalog
from burnloc.cli import main
from burnloc.errors import CatalogIncompleteError, ValidationError
from burnloc.groups import Subgroup, build_group
from burnloc.normalforms import IntegerLattice
from burnloc.relations import (
    FilterSpec,
    classes_equal,
    filter_project,
    filtered_structure,
    generate_relations,
    phi_G,
    reduce,
    relation_lattice,
    structure,
    structure_from,
)
from burnloc.symbols import BurnsideClass, enumerate_symbols, text_form, y_subgroup
from oracles import (
    dense_smith_diagonal,
    filter_from_subgroups,
    filtered_relation_vectors,
    kernel_basis,
    reference_generate_relations,
)
from scenarios import (
    WRONG_EXTENSION_REFUSAL,
    WRONG_SHAPE_REFUSAL,
    clear_engine_caches,
    cyclic_table,
    dihedral_table,
    direct_product,
    generated_catalog,
    genus_one_catalog,
    relabel,
    wrong_extension_catalog,
    wrong_shape_catalog,
)


def by_form(G, catalog):
    return {text_form(s, G): s for s in enumerate_symbols(G, catalog)}


def involution_symbols(z2, hyper_cat):
    syms = by_form(z2, hyper_cat)
    return (
        syms["curve[H=C2{0,1};Y=1{0};act=triv-C;w=(1),(1)]"],
        syms["surface[H=C2{0,1};Y=1{0};act=triv-CxP1;w=(1)]"],
        syms["jac[H=C2{0,1};Y=1{0};act=triv-J]"],
        syms["jac[H=1{0};Y=C2{0,1};act=inv-J]"],
        syms["jac[H=1{0};Y=1{0};act=triv-J]"],
    )


def test_involution_relation_set_is_exact(z2, hyper_cat):
    s1, s2, s3, s4, s5 = involution_symbols(z2, hyper_cat)
    vectors = {r.vector for r in generate_relations(z2, hyper_cat)}
    expected = {
        BurnsideClass.of(s1) + BurnsideClass.of(s3),
        BurnsideClass.of(s1) - BurnsideClass.of(s2) - BurnsideClass.of(s3),
        BurnsideClass.of(s4),
        BurnsideClass.of(s5),
    }
    assert vectors == expected


def test_elliptic_relations_contain_stated_vectors(z2, elliptic_cat):
    syms = by_form(z2, elliptic_cat)
    s1 = syms["curve[H=C2{0,1};Y=1{0};act=triv-C;w=(1),(1)]"]
    s2 = syms["surface[H=C2{0,1};Y=1{0};act=triv-CxP1;w=(1)]"]
    s3 = syms["jac[H=C2{0,1};Y=1{0};act=triv-J]"]
    s6 = syms["jac[H=1{0};Y=C2{0,1};act=trivG-J]"]
    relations = generate_relations(z2, elliptic_cat)
    vectors = {r.vector for r in relations}
    assert BurnsideClass.of(s1) - BurnsideClass.of(s2) - BurnsideClass.of(s3) in vectors
    assert BurnsideClass.of(s1) + BurnsideClass.of(s3) in vectors
    assert BurnsideClass.of(s6) - BurnsideClass.of(s3) in vectors  # genus-1 extension move
    for jac_form in (
        "jac[H=1{0};Y=1{0};act=triv-J]",
        "jac[H=1{0};Y=C2{0,1};act=neg-J]",
        "jac[H=1{0};Y=C2{0,1};act=trivG-J]",
    ):
        assert BurnsideClass.of(syms[jac_form]) in vectors
    rules = sorted({r.rule for r in relations})
    assert rules == ["B1", "B2", "B3", "B4"]


def test_empty_catalog_gives_no_relations(z2, hyper_cat):
    from burnloc.catalog import ActionCatalog

    empty = ActionCatalog(curve=hyper_cat.curve, labels=(), name="empty")
    assert enumerate_symbols(z2, empty) == ()
    assert generate_relations(z2, empty) == ()
    assert structure(z2, empty).is_trivial()


def test_structures_of_shipped_fixtures(z2, z3, hyper_cat, elliptic_cat, nonhyp_cat, z3_cat):
    assert structure(z2, hyper_cat).to_json() == {"free_rank": 1, "torsion": []}
    assert structure(z2, elliptic_cat).to_json() == {"free_rank": 0, "torsion": []}
    assert structure(z2, nonhyp_cat).to_json() == {"free_rank": 2, "torsion": []}
    assert structure(z3, z3_cat).to_json() == {"free_rank": 2, "torsion": []}


def test_classes_equal_examples(z2, hyper_cat):
    s1, s2, s3, s4, s5 = involution_symbols(z2, hyper_cat)
    lattice = relation_lattice(z2, hyper_cat)
    a = BurnsideClass.of(s1)
    assert classes_equal(a, a, lattice)
    assert classes_equal(a, -BurnsideClass.of(s3), lattice)
    assert not classes_equal(a, BurnsideClass.of(s2), lattice)
    assert classes_equal(BurnsideClass.of(s4), BurnsideClass.zero(), lattice)


def test_classes_equal_is_equivalence_and_shift_invariant(z2, hyper_cat):
    s1, s2, s3, s4, s5 = involution_symbols(z2, hyper_cat)
    lattice = relation_lattice(z2, hyper_cat)
    classes = [BurnsideClass.zero(), BurnsideClass.of(s1), BurnsideClass.of(s2),
               BurnsideClass.of(s1) - BurnsideClass.of(s2), BurnsideClass.of(s3, 2)]
    for a in classes:
        assert classes_equal(a, a, lattice)
        for b in classes:
            ab = classes_equal(a, b, lattice)
            assert ab == classes_equal(b, a, lattice)
            shift = lattice.class_from_row(lattice.basis[0])
            assert ab == classes_equal(a + shift, b, lattice)
            assert ab == classes_equal(a, b + shift, lattice)
            for c in classes:
                if ab and classes_equal(b, c, lattice):
                    assert classes_equal(a, c, lattice)


def test_reduce_is_idempotent_and_coset_invariant(z2, hyper_cat):
    s1, s2, s3, s4, s5 = involution_symbols(z2, hyper_cat)
    lattice = relation_lattice(z2, hyper_cat)
    rng = random.Random(4)
    syms = [s1, s2, s3, s4, s5]
    for _ in range(50):
        a = BurnsideClass({s: rng.randint(-3, 3) for s in syms})
        red = reduce(a, lattice)
        assert reduce(red, lattice) == red
        assert classes_equal(a, red, lattice)
        shift = lattice.class_from_row(lattice.basis[rng.randrange(len(lattice.basis))])
        assert reduce(a + shift, lattice) == red


def test_all_pairs_filter_is_identity(z2, hyper_cat):
    syms = enumerate_symbols(z2, hyper_cat)
    pairs = [(Subgroup(z2, s.h), y_subgroup(z2, s)) for s in syms]
    f = filter_from_subgroups(pairs)
    a = BurnsideClass({s: i + 1 for i, s in enumerate(syms)})
    assert filter_project(a, f, z2, hyper_cat) == a


def test_max_stabilizer_filter_admits_first_three(z2, hyper_cat):
    s1, s2, s3, s4, s5 = involution_symbols(z2, hyper_cat)
    f = FilterSpec.max_stabilizer(z2)
    assert f.admits(s1, z2) and f.admits(s2, z2) and f.admits(s3, z2)
    assert not f.admits(s4, z2) and not f.admits(s5, z2)
    a = BurnsideClass.of(s4)
    assert filter_project(a, f, z2, hyper_cat).is_zero()


def test_phi_values_and_vanishing_on_relations(z2, z3, hyper_cat, z3_cat):
    s1, s2, s3, s4, s5 = involution_symbols(z2, hyper_cat)
    assert phi_G(BurnsideClass.of(s1), z2, hyper_cat) == -1
    assert phi_G(BurnsideClass.of(s2), z2, hyper_cat) == -2
    assert phi_G(BurnsideClass.of(s3), z2, hyper_cat) == 1
    assert phi_G(BurnsideClass.zero(), z2, hyper_cat) == 0
    for G, cat in ((z2, hyper_cat), (z3, z3_cat)):
        f = FilterSpec.max_stabilizer(G)
        for vec in filtered_relation_vectors(G, cat, f):
            assert phi_G(vec, G, cat) == 0


def test_phi_rejects_unfiltered_nonabelian_and_genus_one(z2, s3, hyper_cat, elliptic_cat):
    s1, s2, s3_, s4, s5 = involution_symbols(z2, hyper_cat)
    with pytest.raises(ValidationError, match="projected"):
        phi_G(BurnsideClass.of(s4), z2, hyper_cat)
    with pytest.raises(ValidationError, match="abelian"):
        phi_G(BurnsideClass.zero(), s3, hyper_cat)
    with pytest.raises(ValidationError, match="genus"):
        phi_G(BurnsideClass.zero(), z2, elliptic_cat)


def test_phi_induces_isomorphism_onto_Z(z2, hyper_cat):
    # quotient is free of rank one
    f = FilterSpec.max_stabilizer(z2)
    assert filtered_structure(z2, hyper_cat, f).to_json() == {"free_rank": 1, "torsion": []}
    s1, s2, s3, s4, s5 = involution_symbols(z2, hyper_cat)
    admitted = [s1, s2, s3]
    index = {s: i for i, s in enumerate(admitted)}
    rel_rows = [v.columns(index) for v in filtered_relation_vectors(z2, hyper_cat, f)]
    rel_lattice = IntegerLattice.from_rows(rel_rows, 3)
    # kernel of phi as an integer lattice: phi = (-1, -2, +1) on (s1, s2, s3)
    phi_rows = [(-1,), (-2,), (1,)]
    ker_rows = kernel_basis(phi_rows, 1)
    ker_lattice = IntegerLattice.from_rows(ker_rows, 3)
    assert rel_lattice.basis == ker_lattice.basis
    # surjectivity: phi(-s1) = 1
    assert phi_G(-BurnsideClass.of(s1), z2, hyper_cat) == 1
    # normal forms of k*s1 are pairwise distinct in the full quotient
    lattice = relation_lattice(z2, hyper_cat)
    forms = {reduce(BurnsideClass.of(s1, k), lattice) for k in range(-3, 4)}
    assert len(forms) == 7


def test_structure_is_enumeration_order_invariant(z2, z3, hyper_cat, z3_cat):
    rng = random.Random(11)
    for G, cat in ((z2, hyper_cat), (z3, z3_cat)):
        syms = list(enumerate_symbols(G, cat))
        vectors = [r.vector for r in generate_relations(G, cat)]
        baseline = structure_from(syms, vectors)
        for _ in range(5):
            shuffled = syms[:]
            rng.shuffle(shuffled)
            assert structure_from(shuffled, vectors) == baseline


def test_composite_stabilizer_b2_has_both_thetas(z4, z4_cat):
    relations = generate_relations(z4, z4_cat)
    syms = by_form(z4, z4_cat)
    target = syms["curve[H=C4{0,1,2,3};Y=1{0};act=triv-C;w=(1),(3)]"]
    b2 = next(
        r for r in relations
        if r.rule == "B2" and dict(r.params)["symbol"].endswith("w=(1),(3)]")
    )
    terms = dict((text_form(s, z4), c) for s, c in b2.vector.terms())
    assert terms == {
        "curve[H=C4{0,1,2,3};Y=1{0};act=triv-C;w=(1),(3)]": 1,
        "curve[H=C4{0,1,2,3};Y=1{0};act=triv-C;w=(1),(2)]": -1,
        "curve[H=C4{0,1,2,3};Y=1{0};act=triv-C;w=(2),(3)]": -1,
        "surface[H=C2{0,2};Y=C2{0,1};act=halfturn-CxP1;w=(1)]": -1,
        "jac[H=C4{0,1,2,3};Y=1{0};act=triv-J]": -1,
    }


def test_composite_stabilizer_filter_closure_violation(z4, z4_cat):
    # the B2 instance above sheds a smaller-stabilizer term, so the
    # maximal-stabilizer projection must be refused
    f = FilterSpec.max_stabilizer(z4)
    with pytest.raises(ValidationError, match="closure violation"):
        filter_project(BurnsideClass.zero(), f, z4, z4_cat)


def test_missing_induce_rule_is_catalog_incomplete(z4, hyper_cat):
    with pytest.raises(CatalogIncompleteError, match="InduceRule"):
        generate_relations(z4, hyper_cat)


def test_b2_kernel_invariant_holds_on_generated_instances(z4, z4_cat):
    # every generated Theta2 term has a nontrivial cyclic stabilizer whose dual
    # is generated by the restricted weight (checked here independently)
    from burnloc.abelian import abelian_structure
    from oracles import character_span

    for r in generate_relations(z4, z4_cat):
        for s, _ in r.vector.terms():
            if s.kind != "surface":
                continue
            H = Subgroup(z4, s.h)
            assert not H.is_trivial() and H.is_cyclic()
            assert len(character_span(abelian_structure(H), s.weights[0])) == H.order


def test_every_relation_instance_uses_valid_canonical_symbols(z2, z3, z4, hyper_cat, elliptic_cat, nonhyp_cat, z3_cat, z4_cat):
    from burnloc.symbols import canonicalize, validate_symbol

    for G, cat in ((z2, hyper_cat), (z2, elliptic_cat), (z2, nonhyp_cat), (z3, z3_cat), (z4, z4_cat)):
        index = set(enumerate_symbols(G, cat))
        for rel in generate_relations(G, cat):
            for sym, coeff in rel.vector.terms():
                assert coeff != 0
                assert validate_symbol(sym, G, cat) == []
                assert canonicalize(sym, G, cat) == sym
                assert sym in index


def test_phi_kills_filtered_relations_of_every_genus2_fixture(z2, z3, hyper_cat, nonhyp_cat, z3_cat):
    for G, cat in ((z2, hyper_cat), (z2, nonhyp_cat), (z3, z3_cat)):
        f = FilterSpec.max_stabilizer(G)
        for vec in filtered_relation_vectors(G, cat, f):
            assert phi_G(vec, G, cat) == 0


def test_missing_jacobian_rule_is_catalog_incomplete(z2, hyper_cat):
    from burnloc.catalog import catalog_from_json, catalog_to_json

    data = catalog_to_json(hyper_cat)
    data["rules"]["jacobian_of_curve"] = [r for r in data["rules"]["jacobian_of_curve"]
                                          if r["source"] != "triv-C"]
    crippled = catalog_from_json(data, name="no-jac-rule")
    with pytest.raises(CatalogIncompleteError, match="JacobianOfCurveRule"):
        generate_relations(z2, crippled)


def test_nonabelian_group_needs_order3_induce_rule(s3, hyper_cat):
    # the order-6 nonabelian group has a C3 stabilizer whose blow-ups need an
    # InduceRule the involution catalog does not declare
    with pytest.raises(CatalogIncompleteError, match="h=C3"):
        generate_relations(s3, hyper_cat)


def test_degenerate_extension_rule_emits_nothing(z2, elliptic_cat):
    from burnloc.catalog import catalog_from_json, catalog_to_json

    data = catalog_to_json(elliptic_cat)
    data["rules"]["genus_one_extension"].append(
        {"h": [], "label": "neg-J", "trivial_part": "none", "target_h": [], "target_label": "neg-J"}
    )
    extended = catalog_from_json(data, name="with-degenerate-b4")
    from burnloc.catalog import validate_catalog
    assert validate_catalog(extended) == []
    assert {r.vector for r in generate_relations(z2, extended)} ==         {r.vector for r in generate_relations(z2, elliptic_cat)}


def _dihedral_spec(n):
    return {"kind": "table", "mul": dihedral_table(n)}


@pytest.mark.parametrize("spec, expected", [
    ({"kind": "abelian", "factors": [2, 2, 8]}, (246, (2, 2, 2, 2, 4, 4, 4, 4, 4, 4))),
    (_dihedral_spec(16), (27, (2, 2, 2, 2, 2, 4, 16))),
], ids=["C2xC2xC8", "D16"])
def test_structure_of_order_32_generated_catalogs(spec, expected):
    # the largest rungs of the benchmark ladders: 516x710 and 81x105 relation matrices
    G = build_group(spec)
    s = structure(G, generated_catalog(G))
    assert (s.free_rank, s.torsion) == expected


@pytest.mark.parametrize("spec, expected", [
    ({"kind": "table", "mul": direct_product(dihedral_table(4), dihedral_table(4))}, (398, (2,) * 10 + (4,))),
    (_dihedral_spec(32), (59, (2,) * 15 + (4, 16, 64))),
], ids=["D4xD4", "D32"])
def test_structure_of_order_64_generated_catalogs(spec, expected):
    # the documented order bound, on two nonabelian groups with large subgroup lattices
    G = build_group(spec)
    s = structure(G, generated_catalog(G))
    assert (s.free_rank, s.torsion) == expected


def test_relation_lattice_of_order_64_c4_cubed():
    # the documented order bound on the largest abelian lattice: the Hermite form
    # of 2052 relation rows over 2845 symbols, built on sparse pivot rows
    G = build_group({"kind": "abelian", "factors": [4, 4, 4]})
    lattice = relation_lattice(G, generated_catalog(G))
    assert (lattice.lattice.rank, len(lattice.index)) == (1660, 2845)
    a = BurnsideClass({s: 1 for s in lattice.index[:40]})
    b = reduce(a, lattice)
    assert b != a and classes_equal(a, b, lattice)
    free = next(s for s in lattice.index if not lattice.contains(BurnsideClass.of(s)))
    assert not classes_equal(a, b + BurnsideClass.of(free), lattice)


D4XC2 = {"kind": "table", "mul": direct_product(dihedral_table(4), cyclic_table(2))}


def _record_calls(monkeypatch, module, name, calls):
    """Wrap `module.name` in the symbols and relations modules, wherever they
    hold it, appending each call's positional arguments and result to `calls`."""
    real = getattr(module, name)

    def wrapper(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    for holder in (burnloc.symbols, burnloc.relations):
        if getattr(holder, name, None) is real:
            monkeypatch.setattr(holder, name, wrapper)


@pytest.mark.parametrize("spec", [{"kind": "abelian", "factors": [4, 4]}, D4XC2], ids=["C4xC4", "D4xC2"])
def test_structure_enumerates_once_and_canonicalizes_each_raw_symbol_once(spec, monkeypatch):
    G = build_group(spec)
    catalog = generated_catalog(G)
    enumerations, canonicalizations = [], []
    _record_calls(monkeypatch, burnloc.symbols, "enumerate_symbols", enumerations)
    # over nonabelian G enumerated symbols reach canonical_form directly and
    # relation terms through canonicalize, so canonical_form sees every raw
    # symbol of the pass; over abelian G every raw symbol the pass meets is
    # enumerated and already canonical, so none reaches canonical_form
    _record_calls(monkeypatch, burnloc.symbols, "canonical_form", canonicalizations)
    structure(G, catalog)
    assert len(enumerations) == 1
    per_symbol = Counter(args[0] for args, _ in canonicalizations)
    if G.is_abelian():
        assert not per_symbol
    else:
        assert per_symbol and max(per_symbol.values()) == 1


def test_generate_relations_without_context_matches_the_structure_pass(monkeypatch):
    G = build_group(D4XC2)
    catalog = generated_catalog(G)
    in_pass = []
    _record_calls(monkeypatch, burnloc.relations, "generate_relations", in_pass)
    structure(G, catalog)
    monkeypatch.undo()
    ((_, relations),) = in_pass
    alone = generate_relations(G, catalog)
    assert [(r.rule, r.params, r.vector) for r in alone] == [(r.rule, r.params, r.vector) for r in relations]


def test_induce_target_of_the_wrong_shape_fails_structure():
    # the catalog check only compares orders, so a C2xC2 target for a C4 quotient
    # passes it; the induced surface term must still be refused when first seen,
    # naming its relation, its source symbol and the rule
    G = build_group({"kind": "abelian", "factors": [2, 4]})
    catalog = ensure_valid_catalog(catalog_from_json(wrong_shape_catalog(G), name="wrong-shape"))
    with pytest.raises(ValidationError) as info:
        structure(G, catalog)
    assert str(info.value) == WRONG_SHAPE_REFUSAL


def test_a_refused_relation_term_exits_2_through_main(capsys, tmp_path):
    G = build_group({"kind": "abelian", "factors": [2, 4]})
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(wrong_shape_catalog(G)))
    for argv in (["structure"], ["structure", "--json"], ["relations", "--dump"]):
        assert main([*argv, "--group", '{"kind":"abelian","factors":[2,4]}', "--catalog", str(catalog)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {WRONG_SHAPE_REFUSAL}\n")


def test_an_extension_of_the_wrong_shape_exits_2_through_main_naming_b4(capsys, tmp_path):
    # the catalog check fixes the extension's order |H| * |Y1|, not its shape: over C4
    # the extension of Y1 = C2 by H = C2 is C4, so B4 refuses the declared C2xC2,
    # naming its source symbol and the rule, and the reference pass agrees
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(wrong_extension_catalog()))
    for argv in (["structure"], ["structure", "--json"], ["relations", "--dump"]):
        assert main([*argv, "--group", '{"kind":"cyclic","n":4}', "--catalog", str(catalog)]) == 2
        assert capsys.readouterr() == ("", f"error: {WRONG_EXTENSION_REFUSAL}\n")
    G = build_group({"kind": "cyclic", "n": 4})
    with pytest.raises(ValidationError) as info:
        reference_generate_relations(G, ensure_valid_catalog(catalog_from_json(wrong_extension_catalog())))
    assert str(info.value) == WRONG_EXTENSION_REFUSAL


def test_relabelled_structure_is_the_same_with_cold_and_warm_caches():
    G = build_group(D4XC2)
    catalog = generated_catalog(G)
    expected = structure(G, catalog)
    R = build_group({"kind": "table", "mul": relabel(D4XC2["mul"], 5)})
    clear_engine_caches()
    cold = structure(R, catalog)
    warm = structure(R, catalog)
    assert cold == warm == expected


C2XC2 = direct_product(cyclic_table(2), cyclic_table(2))
GENUS_ONE = {"C2xC2": C2XC2, "C2^4": direct_product(C2XC2, C2XC2)}


@pytest.mark.parametrize("relabelled", [False, True])
@pytest.mark.parametrize("name, counts, expected", [
    ("C2xC2", {"B1": 9, "B2": 12, "B3": 7, "B4": 3}, (4, (2,) * 5)),
    ("C2^4", {"B1": 225, "B2": 960, "B3": 31, "B4": 15}, (501, (2,) * 505)),
])
def test_genus_one_recipe_fires_b3_and_b4_at_order_16(name, counts, expected, relabelled):
    # B3 and B4, the Jacobian relations of the genus-1 curve, over 1732 symbols on C2^4;
    # on C2xC2 the relations equal the reference pass's and the answer the dense Smith form's
    table = GENUS_ONE[name]
    G = build_group({"kind": "table", "mul": relabel(table, name) if relabelled else table})
    catalog = genus_one_catalog(G)
    context = burnloc.relations.BurnsideContext(G, catalog)
    assert Counter(r.rule for r in context.relations) == counts
    assert tuple(context.structure) == expected
    if name == "C2xC2":
        assert [r.vector for r in context.relations] == [r.vector for r in reference_generate_relations(G, catalog)]
        rows = [[r.vector.coefficient(s) for s in context.symbols] for r in context.relations]
        diagonal = dense_smith_diagonal(rows, len(context.symbols))
        assert (len(context.symbols) - len(diagonal), tuple(d for d in diagonal if d > 1)) == expected


def test_genus_one_recipe_refuses_an_induce_key_of_two_shapes():
    # over C2xC4 a curve symbol's Theta2 Y bar under (C2xC2, inv-C, diff_order 2) is C4, not
    # the C2xC2 of the recipe's target, and B2 refuses the term naming its symbol and rule
    G = build_group({"kind": "abelian", "factors": [2, 4]})
    with pytest.raises(ValidationError) as info:
        structure(G, genus_one_catalog(G))
    assert str(info.value) == (
        "B2(symbol=curve[H=C2xC2{0,2,4,6};Y=C2{0,1};act=inv-C;w=(0,1),(1,0)]): InduceRule(C2xC2,inv-C,diff_order=2): "
        "cannot canonicalize invalid symbol: residual group of order 4 does not match declared shape C2xC2")
