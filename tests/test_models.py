import json
from collections import Counter
from dataclasses import replace

import pytest

from burnloc.catalog import catalog_to_json
from burnloc.cli import main
from burnloc.errors import ValidationError
from burnloc.fixtures import fixture_catalog, fixture_center, fixture_model, model_names
from burnloc.groups import all_subgroups, build_group
from burnloc.models import (
    BlowupCenter,
    JacobianFactorDatum,
    ModelDescription,
    StratumDatum,
    blowup,
    class_of_action,
    invariant_I,
    invariant_counts,
    validate_model,
    verdict,
    verify_blowup_invariance,
)
from burnloc.relations import BurnsideContext, classes_equal, relation_lattice
from burnloc.symbols import (
    KIND_CURVE,
    BurnsideClass,
    Symbol,
    canonicalize,
    text_form,
    validate_symbol,
)
from oracles import _reference_b2_terms, _reference_jac_partner, blown_up_from_scratch
from scenarios import (
    FIXTURE_PAIRS,
    LADDER_GROUPS,
    PERM_GROUPS,
    _datum,
    dihedral_table,
    generated_catalog,
    relabel,
)


def test_builtin_model_fixtures_validate():
    assert set(model_names()) == {
        "sxp1-involution", "quadric-bundle", "three-nodal-cubic", "dp6-fibration",
        "conic-bundle-exotic", "elliptic-fixed-curve", "elliptic-empty",
    }
    for name in model_names():
        assert validate_model(fixture_model(name)) == []


def test_class_of_ruled_divisor_model():
    m = fixture_model("sxp1-involution")
    terms = [(text_form(s, m.group), c) for s, c in class_of_action(m).terms()]
    assert terms == [("surface[H=C2{0,1};Y=1{0};act=triv-CxP1;w=(1)]", 1)]


def test_class_of_empty_model():
    assert class_of_action(fixture_model("elliptic-empty")).is_zero()


def test_class_of_three_nodal_cubic():
    m = fixture_model("three-nodal-cubic")
    terms = [(text_form(s, m.group), c) for s, c in class_of_action(m).terms()]
    assert terms == [("jac[H=C3{0,1,2};Y=1{0};act=triv-J]", 1)]


def test_class_is_additive_over_disjoint_unions():
    m = fixture_model("quadric-bundle")
    doubled = ModelDescription(
        group=m.group, catalog=m.catalog,
        strata=m.strata + m.strata,
        jacobian_factors=m.jacobian_factors,
    )
    assert class_of_action(doubled) == class_of_action(m) + class_of_action(m)


def test_a_repeated_datum_counts_twice():
    for name in ("sxp1-involution", "three-nodal-cubic"):
        m = fixture_model(name)
        twice = replace(m, strata=m.strata * 2, jacobian_factors=m.jacobian_factors * 2, counts=None)
        [(sym, coeff)] = class_of_action(m).terms()
        assert coeff == 1 and class_of_action(twice).terms() == [(sym, 2)]


def test_case3_blowup_replaces_stratum():
    m = fixture_model("elliptic-fixed-curve")
    out = blowup(m, BlowupCenter(case=3, stratum=0))
    assert len(out.strata) == 1
    assert out.strata[0].kind == "ruled_divisor"
    assert out.strata[0].residual == "triv-CxP1"
    assert [f.residual for f in out.jacobian_factors] == ["triv-J"]
    assert out.jacobian_factors[0].stabilizer == (0, 1)
    assert validate_model(out) == []


def test_case2_blowup_appends_pair():
    m = fixture_model("elliptic-empty")
    center = fixture_center("elliptic-bullet2")
    out = blowup(m, center)
    assert [d.kind for d in out.strata] == ["fixed_curve"]
    assert out.strata[0].weights == ((1,), (1,))  # b and -b coincide mod 2
    assert [f.residual for f in out.jacobian_factors] == ["triv-J"]


def test_case1_blowup_appends_jacobian_factor_only():
    m = fixture_model("elliptic-empty")
    out = blowup(m, BlowupCenter(case=1, curve_label="transl-C", y_reps=(1,)))
    assert out.strata == ()
    assert [f.residual for f in out.jacobian_factors] == ["trivG-J"]
    assert out.jacobian_factors[0].stabilizer == (0,)


def test_all_five_elliptic_blowup_scenarios_verify():
    m1 = fixture_model("elliptic-fixed-curve")
    m0 = fixture_model("elliptic-empty")
    pairs = [("elliptic-bullet1", m1)] + [(f"elliptic-bullet{i}", m0) for i in range(2, 6)]
    for cname, m in pairs:
        assert verify_blowup_invariance(m, fixture_center(cname))


def test_elliptic_symbol_combinations_reduce_to_zero():
    m = fixture_model("elliptic-fixed-curve")
    lattice = relation_lattice(m.group, m.catalog)
    for sym in lattice.index:
        assert lattice.reduce(BurnsideClass.of(sym)).is_zero()


def test_corrupted_case3_blowup_fails():
    # dropping the appended jacobian factor must break invariance on a
    # catalog with nontrivial quotient
    m = fixture_model("quadric-bundle")
    out = blowup(m, BlowupCenter(case=3, stratum=0))
    corrupted = ModelDescription(
        group=out.group, catalog=out.catalog, strata=out.strata,
        jacobian_factors=out.jacobian_factors[:-1],
    )
    lattice = relation_lattice(m.group, m.catalog)
    assert classes_equal(class_of_action(m), class_of_action(out), lattice)
    assert not classes_equal(class_of_action(m), class_of_action(corrupted), lattice)


def test_blowup_case_shape_mismatches_rejected():
    m1 = fixture_model("elliptic-fixed-curve")
    with pytest.raises(ValidationError, match="ruled_divisor"):
        blowup(m1, BlowupCenter(case=2, stratum=0, curve_label="triv-C"))
    with pytest.raises(ValidationError, match="case must be"):
        blowup(m1, BlowupCenter(case=4))
    with pytest.raises(ValidationError, match="does not match"):
        blowup(m1, BlowupCenter(case=1, curve_label="transl-C", y_reps=()))


def _c2_cubed_with_an_involution():
    """A model with no data on C2^3 over its generated catalog plus a curve label
    `inv-C` of shape C2 and the rules that keep the catalog complete: over
    H = {0, 1} the centralizer quotient C2xC2 holds three Ys of that shape."""
    spec = {"kind": "abelian", "factors": [2, 2, 2]}
    data = catalog_to_json(generated_catalog(build_group(spec)))
    data["labels"] += [
        {"id": "inv-C", "space": "curve", "group_shape": [2], "faithful": True, "trivial": False},
        {"id": "inv-J", "space": "jacobian", "group_shape": [2], "faithful": True, "trivial": False,
         "from_curve": True, "underlying_curve_action": "inv-C"},
        {"id": "v4-CxP1", "space": "ruled_surface", "group_shape": [2, 2], "faithful": True, "trivial": False},
    ]
    data["rules"]["jacobian_of_curve"].append({"source": "inv-C", "target": "inv-J"})
    data["rules"]["induce"] += [
        {"h": [2], "curve_label": "inv-C", "weights": "equal", "target": "c2-CxP1"},
        {"h": [2, 2], "curve_label": "inv-C", "weights": {"diff_order": 2}, "target": "v4-CxP1"},
    ]
    return {"group": spec, "catalog": data}


def _s3():
    """A model with no data on S3 over its generated catalog; element 1 is the
    transposition (0 2 1), and the 3-cycle 3 does not centralize it."""
    return {"group": PERM_GROUPS["S3"], "catalog": catalog_to_json(generated_catalog(build_group(PERM_GROUPS["S3"])))}


C2_CONTEXT = {"stabilizer": [0, 1], "weight": [1]}
FIXED = "elliptic-fixed-curve"
CENTER_REFUSALS = [  # (model, center, the one error line); a model is a fixture name or a function returning its JSON
    (FIXED, {"case": 4}, "blow-up case must be 1, 2 or 3, got 4"),
    (FIXED, {"case": 1}, "case-1 centers carry the curve action label"),
    (FIXED, {"case": 1, "curve_label": "nope"}, "unknown action label 'nope'"),
    (FIXED, {"case": 1, "curve_label": "neg-J"}, "case-1 centers need a curve-space action label"),
    (FIXED, {"case": 1, "curve_label": "inv-C", "y_reps": [99]}, "y_reps elements [99] outside the ambient group"),
    (FIXED, {"case": 1, "curve_label": "inv-C", "y_reps": [-1]}, "y_reps elements [-1] outside the ambient group"),
    (FIXED, {"case": 1, "curve_label": "inv-C"}, "case-1 residual group of order 1 does not match C2"),
    (FIXED, {"case": 1, "curve_label": "triv-C", "y_reps": [1]}, "case-1 residual group of order 2 does not match 1"),
    (FIXED, {"case": 2, "curve_label": "inv-C"},
     "case-2 centers name either a ruled stratum or an explicit divisor context"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "stratum": 0, "context": C2_CONTEXT},
     "case-2 centers name either a ruled stratum or an explicit divisor context"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "stratum": 5}, "no stratum with index 5"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "stratum": 0}, "case-2 centers must reference a ruled_divisor stratum"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "context": {"stabilizer": [0, 1]}},
     "explicit case-2 context needs both stabilizer and weight"),
    (FIXED, {"case": 2, "context": C2_CONTEXT}, "case-2 centers carry the residual curve action label"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "context": {"stabilizer": [1], "weight": [1]}},
     "subgroup must contain the identity"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "context": {"stabilizer": [0, 7], "weight": [1]}},
     "element 7 outside the ambient group"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "context": {"stabilizer": [0], "weight": [1]}},
     "case-2 stabilizers are nontrivial"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "context": {"stabilizer": [0, 1], "weight": [0]}},
     "case-2 weight must generate the stabilizer's character group"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "context": {"stabilizer": [0, 1], "weight": [1, 1]}},
     "character coordinates do not match the structure"),
    (FIXED, {"case": 2, "curve_label": "neg-J", "context": C2_CONTEXT},
     "case-2 centers need a curve-space action label"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "y_reps": [99], "context": C2_CONTEXT},
     "y_reps elements [99] outside the ambient group"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "y_reps": [1], "context": C2_CONTEXT},
     "case-2 residual group of order 1 does not match C2"),
    (FIXED, {"case": 2, "curve_label": "inv-C", "context": C2_CONTEXT},
     "no residual subgroup of shape C2 exists for stabilizer (0, 1)"),
    ("sxp1-involution", {"case": 2, "curve_label": "triv-C", "stratum": 0, "y_reps": [5]},
     "y_reps elements [5] outside the ambient group"),
    (_s3, {"case": 2, "curve_label": "triv-C", "y_reps": [3], "context": C2_CONTEXT},
     "y_reps elements [3] do not centralize/normalize the stabilizer (0, 1)"),
    (_c2_cubed_with_an_involution, {"case": 2, "curve_label": "inv-C", "context": C2_CONTEXT},
     "residual group for label 'inv-C' over stabilizer (0, 1) is ambiguous; declare y_reps explicitly"),
    (FIXED, {"case": 3}, "no stratum with index None"),
    (FIXED, {"case": 3, "stratum": 1}, "no stratum with index 1"),
    ("sxp1-involution", {"case": 3, "stratum": 0}, "case-3 centers must reference a fixed_curve stratum"),
]


@pytest.mark.parametrize("model,center,message", CENTER_REFUSALS)
def test_every_center_refusal_exits_2_through_main(capsys, tmp_path, model, center, message):
    # a center's Y is read from its y_reps, which every refusal of Y names
    if callable(model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model()))
        model = str(path)
    assert main(["verify-blowup", "--model", model, "--center", json.dumps(center)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_invariant_counts_examples():
    assert invariant_I(0, 1, 0) == -2
    assert invariant_I(0, 0, 1) == 1
    assert invariant_I(0, 0, 0) == 0
    assert invariant_I(1, 0, 0) == -1
    with pytest.raises(ValidationError):
        invariant_I(-1, 0, 0)


def test_counts_derived_and_declared():
    m = fixture_model("sxp1-involution")
    assert invariant_counts(m) == (0, 1, 0)
    bad = ModelDescription(
        group=m.group, catalog=m.catalog, strata=m.strata,
        jacobian_factors=m.jacobian_factors, counts=(1, 1, 0),
    )
    assert any("disagree" in p for p in validate_model(bad))


def test_counts_refused_for_genus_one():
    m = fixture_model("elliptic-fixed-curve")
    with pytest.raises(ValidationError, match="genus"):
        invariant_counts(m)
    with pytest.raises(ValidationError, match="genus"):
        verdict(m)


@pytest.mark.parametrize("name,counts,value", [
    ("sxp1-involution", (0, 1, 0), -2),
    ("quadric-bundle", (1, 0, 0), -1),
    ("three-nodal-cubic", (0, 0, 1), 1),
    ("dp6-fibration", (1, 0, 0), -1),
])
def test_verdicts_reproduce_reported_invariants(name, counts, value):
    report = verdict(fixture_model(name))
    assert report.counts == counts
    assert report.invariant == value
    assert report.phi == value
    assert report.consistent
    assert report.obstructed
    assert report.verdict.startswith("OBSTRUCTED")


def test_exotic_model_reports_note_without_obstruction():
    report = verdict(fixture_model("conic-bundle-exotic"))
    assert report.invariant == 0
    assert not report.obstructed
    assert report.verdict == "NO OBSTRUCTION FROM THIS INVARIANT"
    assert any("exotic Jacobian symbol present" in n and "nonzero" in n for n in report.notes)


@pytest.mark.parametrize("name", [n for n in model_names() if fixture_model(n).catalog.curve.genus >= 2])
def test_verdict_generates_the_relations_once(monkeypatch, name):
    # the filter's closure check and the exotic note's lattice read one relation pass
    import burnloc.relations

    calls = []
    real = burnloc.relations.generate_relations

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(burnloc.relations, "generate_relations", counting)  # the pass's one caller
    report = verdict(fixture_model(name))
    assert len(calls) == 1, name
    assert bool(report.notes) == (name == "conic-bundle-exotic")


def test_ambiguous_residual_group_needs_explicit_data():
    # in C2 x C2 there are three order-2 subgroups of the normalizer quotient
    from burnloc.groups import build_group
    from burnloc.fixtures import fixture_catalog

    G = build_group({"kind": "abelian", "factors": [2, 2]})
    cat = fixture_catalog("nonhyperelliptic-Z2-exotic")
    m = ModelDescription(
        group=G, catalog=cat,
        jacobian_factors=(JacobianFactorDatum(stabilizer=(0,), residual="exotic-inv-J"),),
    )
    assert any("ambiguous" in p for p in validate_model(m))
    fixed = ModelDescription(
        group=G, catalog=cat,
        jacobian_factors=(JacobianFactorDatum(stabilizer=(0,), residual="exotic-inv-J",
                                              residual_group=(0, 1)),),
    )
    assert validate_model(fixed) == []


def test_blowup_preserves_validity_and_counts_invariance():
    m = fixture_model("quadric-bundle")
    out = blowup(m, BlowupCenter(case=3, stratum=0))
    assert validate_model(out) == []
    # the combination I is a blow-up invariant even though the counts move
    assert invariant_I(*invariant_counts(out)) == invariant_I(*invariant_counts(m))


def test_counts_invariant_equals_phi_on_random_models():
    import random

    from burnloc.fixtures import fixture_catalog
    from burnloc.groups import build_group
    from burnloc.relations import FilterSpec, filter_project, phi_G
    from scenarios import ScenarioPool

    for name, n in (("hyperelliptic-Z2", 2), ("Z3-basic", 3)):
        G = build_group({"kind": "cyclic", "n": n})
        cat = fixture_catalog(name)
        pool = ScenarioPool(G, cat)
        rng = random.Random(31337)
        f = FilterSpec.max_stabilizer(G)
        for _ in range(40):
            m = pool.random_model(rng)
            i1, i2, i3 = invariant_counts(m)
            projected = filter_project(class_of_action(m), f, G, cat)
            assert invariant_I(i1, i2, i3) == phi_G(projected, G, cat)


def test_model_curve_field_must_match_catalog():
    from burnloc.fixtures import fixture_catalog
    from burnloc.models import model_from_json

    data = {
        "group": {"kind": "cyclic", "n": 2},
        "catalog": "hyperelliptic-Z2",
        "curve": {"id": "C-hyp2"},
        "strata": [],
        "jacobian_factors": [],
    }
    m = model_from_json(data, fixture_catalog)
    assert m.catalog.curve.id == "C-hyp2"
    data["curve"] = {"id": "other-curve"}
    with pytest.raises(ValidationError, match="does not match"):
        model_from_json(data, fixture_catalog)


def _count_model_symbols(monkeypatch):
    import burnloc.models

    calls = []
    real = burnloc.models._model_symbols

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(burnloc.models, "_model_symbols", counting)
    return calls


def _count_datum_symbols(monkeypatch):
    """The model of every `_datum_symbol` call, one entry per datum checked."""
    import burnloc.models

    checked = []
    real = burnloc.models._datum_symbol

    def counting(m, *args):
        checked.append(m)
        return real(m, *args)

    monkeypatch.setattr(burnloc.models, "_datum_symbol", counting)
    return checked


def _size(m):
    return len(m.strata) + len(m.jacobian_factors)


def _added(m, out, case):
    """The number of data the blow-up of m added to out (case 3 replaces one stratum)."""
    return _size(out) - _size(m) + (case == 3)


@pytest.mark.parametrize("name, center", [
    ("quadric-bundle", BlowupCenter(case=3, stratum=0)),
    ("elliptic-empty", BlowupCenter(case=1, curve_label="transl-C", y_reps=(1,))),
    ("elliptic-empty", "elliptic-bullet2"),
])
def test_class_after_blowup_checks_each_model_once(monkeypatch, name, center):
    if isinstance(center, str):
        center = fixture_center(center)
    calls = _count_model_symbols(monkeypatch)
    checked = _count_datum_symbols(monkeypatch)
    m = fixture_model(name)
    out = blowup(m, center)
    lattice = relation_lattice(m.group, m.catalog)
    for _ in range(3):
        assert classes_equal(class_of_action(m), class_of_action(out), lattice)
        assert validate_model(out) == []
    # m is checked from scratch; out starts from m's symbols and checks its added data
    assert len(calls) == 1 and calls[0] is m
    assert sum(x is m for x in checked) == _size(m)
    assert sum(x is out for x in checked) == _added(m, out, center.case)
    assert len(checked) == _size(m) + _added(m, out, center.case)
    # a fresh object with the same fields is checked afresh, to the same answer
    again = replace(out)
    assert again is not out and again == out
    assert class_of_action(again) == class_of_action(out)
    assert validate_model(again) == validate_model(out)
    assert len(calls) == 2 and calls[1] is again
    assert sum(x is again for x in checked) == _size(out)


def _outcome(m, center):
    """The blow-up's result and its checked symbols in datum order, or its error message."""
    try:
        out = blowup(m, center)
    except ValidationError as exc:
        return str(exc)
    return out, out._checked


def _assert_blowup_as_from_scratch(m, center):
    """blowup(m, center) answers as the result built and checked from scratch,
    and checks only the data it adds; returns the outcome."""
    import burnloc.models

    validate_model(m)  # m's own check, before the move
    with pytest.MonkeyPatch.context() as patch:
        checked = _count_datum_symbols(patch)
        outcome = _outcome(m, center)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(burnloc.models, "_blown_up", blown_up_from_scratch)
        assert _outcome(m, center) == outcome
    if isinstance(outcome, str):
        return outcome
    out, _ = outcome
    assert len(checked) == _added(m, out, center.case) and all(x is out for x in checked)
    fresh = replace(out)
    assert fresh is not out and fresh._checked == out._checked
    assert class_of_action(fresh) == class_of_action(out)
    assert validate_model(fresh) == validate_model(out) == []
    return outcome


FIXTURE_BLOWUPS = [
    ("elliptic-fixed-curve", "elliptic-bullet1"),
    *(("elliptic-empty", f"elliptic-bullet{i}") for i in range(2, 6)),
    ("quadric-bundle", BlowupCenter(case=3, stratum=0)),
    ("elliptic-empty", BlowupCenter(case=1, curve_label="transl-C", y_reps=(1,))),
]


def _fixture_centers(m):
    """Every center of the three cases over m's data and its catalog's curve labels,
    valid or not."""
    curve_labels = [label.id for label in m.catalog.labels_in("curve")]
    for i, datum in enumerate(m.strata):
        if datum.kind == "fixed_curve":
            yield BlowupCenter(case=3, stratum=i)
        else:
            for label in curve_labels:
                yield BlowupCenter(case=2, stratum=i, curve_label=label)
    for label in curve_labels:
        for Y in all_subgroups(m.group):
            yield BlowupCenter(case=1, curve_label=label, y_reps=Y.elements)
    yield BlowupCenter(case=3, stratum=len(m.strata))
    yield BlowupCenter(case=4)


@pytest.mark.parametrize("name, center", FIXTURE_BLOWUPS)
def test_fixture_blowups_answer_as_from_scratch(name, center):
    if isinstance(center, str):
        center = fixture_center(center)
    outcome = _assert_blowup_as_from_scratch(fixture_model(name), center)
    assert not isinstance(outcome, str)


def test_every_fixture_center_answers_as_from_scratch():
    raised = valid = 0
    for name in model_names():
        m = fixture_model(name)
        for center in _fixture_centers(m):
            if isinstance(_assert_blowup_as_from_scratch(m, center), str):
                raised += 1
            else:
                valid += 1
    assert raised and valid


def _scenario_pool(name):
    """A scenario pool over C4xC4, D4xC2 or a relabelled D4xC2, with the generated catalog."""
    from burnloc.groups import build_group
    from scenarios import ScenarioPool, cyclic_table, dihedral_table, direct_product, generated_catalog, relabel

    d4xc2 = direct_product(dihedral_table(4), cyclic_table(2))
    spec = {
        "C4xC4": {"kind": "abelian", "factors": [4, 4]},
        "D4xC2": {"kind": "table", "mul": d4xc2},
        "D4xC2-relabelled": {"kind": "table", "mul": relabel(d4xc2, 5)},
    }[name]
    G = build_group(spec)
    return ScenarioPool(G, generated_catalog(G))


@pytest.mark.parametrize("group", ["C4xC4", "D4xC2", "D4xC2-relabelled"])
def test_scenario_blowups_answer_as_from_scratch(group):
    # a seeded stream of valid centers of all three cases, each followed by the
    # same center with its Y generators or stratum index redrawn, valid or not
    import random

    pool = _scenario_pool(group)
    rng = random.Random(f"blowup-{group}")
    cases, raised = set(), 0
    for _ in range(30):
        m = pool.random_model(rng)
        center = pool.random_center(rng, m)
        assert not isinstance(_assert_blowup_as_from_scratch(m, center), str)
        cases.add(center.case)
        if center.case == 3:
            redrawn = center._replace(stratum=rng.randrange(len(m.strata) + 1))
        else:
            redrawn = center._replace(y_reps=tuple(rng.sample(range(pool.G.order), rng.randint(0, 2))))
        raised += isinstance(_assert_blowup_as_from_scratch(m, redrawn), str)
    assert cases == {1, 2, 3} and raised


@pytest.mark.parametrize("group", ["C4xC4", "D4xC2", "D4xC2-relabelled"])
def test_class_equality_answers_as_the_lattice_on_the_difference(group):
    # a seeded stream of blow-ups and their single-term mutants: equality read off both
    # classes' terms answers as membership of the class a - b, in either order
    import random

    from oracles import reference_classes_equal
    from scenarios import single_term_mutations

    pool = _scenario_pool(group)
    lattice = relation_lattice(pool.G, pool.catalog)
    rng = random.Random(f"equal-{group}")
    answers = Counter()
    for _ in range(40):
        m = pool.random_model(rng)
        center = pool.random_center(rng, m)
        out = blowup(m, center)
        base = class_of_action(m)
        for other in (out, *(mutant for _, mutant in single_term_mutations(m, out, center.case))):
            cls = class_of_action(other)
            answer = classes_equal(base, cls, lattice)
            assert answer == classes_equal(cls, base, lattice) == reference_classes_equal(base, cls, lattice)
            answers[answer] += 1
    assert answers[True] >= 40 and answers[False] > 0


def test_blowup_chain_checks_each_added_datum_once(monkeypatch):
    import random

    pool = _scenario_pool("D4xC2-relabelled")
    rng = random.Random(50)
    checked = _count_datum_symbols(monkeypatch)
    m = pool.random_model(rng)
    validate_model(m)
    expected, cases = _size(m), set()
    for _ in range(50):
        center = pool.random_center(rng, m)
        out = blowup(m, center)
        expected += _added(m, out, center.case)
        cases.add(center.case)
        m = out
    assert cases == {1, 2, 3}
    assert len(checked) == expected
    assert replace(m)._checked == m._checked


def test_added_datum_failing_its_own_check_names_its_index_in_the_result():
    import random

    from burnloc.catalog import catalog_from_json, catalog_to_json, ensure_valid_catalog
    from burnloc.groups import build_group
    from burnloc.models import StratumDatum
    from scenarios import ScenarioPool, generated_catalog

    # case 2: explicit Y generators give a Y of order 2 for a label of trivial shape;
    # the move checks the resolved Y against the label before it builds any datum
    G = build_group({"kind": "abelian", "factors": [2, 2]})
    pool = ScenarioPool(G, generated_catalog(G))
    rng = random.Random(5)
    m = pool.random_model(rng)
    while not (m.strata and m.jacobian_factors):
        m = pool.random_model(rng)
    assert (len(m.strata), len(m.jacobian_factors)) == (3, 2) and validate_model(m) == []
    h, weight, label, _ = pool.case2[0]
    outside = next(x for x in G.elements() if x not in h)
    center = BlowupCenter(case=2, curve_label=label, y_reps=(outside,),
                          context_stabilizer=h, context_weight=weight)
    with pytest.raises(ValidationError) as info:
        blowup(m, center)
    assert str(info.value) == "case-2 residual group of order 2 does not match 1"
    # case 3: the induce rule's target declares C2xC2 for the C4 that the added
    # ruled divisor carries; the replaced stratum shifts the divisor's index
    G = build_group({"kind": "cyclic", "n": 8})
    data = catalog_to_json(generated_catalog(G))
    for entry in data["labels"]:
        if entry["id"] == "c4-CxP1":
            entry["group_shape"] = [2, 2]
    catalog = ensure_valid_catalog(catalog_from_json(data, name="c4-as-c2xc2"))
    full = tuple(G.elements())
    m = ModelDescription(group=G, catalog=catalog, strata=tuple(
        StratumDatum("fixed_curve", full, "triv-C", ((1,), (b,))) for b in (1, 3, 5)
    ))
    assert validate_model(m) == []
    with pytest.raises(ValidationError) as info:
        blowup(m, BlowupCenter(case=3, stratum=1))
    assert str(info.value) == (
        "invalid model:\n  stratum 4: invalid stratum datum: residual group of order 4 does not match "
        "declared shape C2xC2"
    )


def test_invalid_model_reports_the_same_problems_on_every_call(monkeypatch):
    from burnloc.catalog import catalog_from_json, catalog_to_json
    from burnloc.fixtures import fixture_catalog

    data = catalog_to_json(fixture_catalog("hyperelliptic-Z2"))
    data["curve"].update(genus=0, hyperelliptic=False)
    bad_catalog = catalog_from_json(data)
    m = replace(fixture_model("sxp1-involution"), catalog=bad_catalog)
    message = "invalid catalog:\n  curve 'C-hyp2': genus must be >= 1, got 0"
    calls = _count_model_symbols(monkeypatch)
    for _ in range(3):
        assert validate_model(m) == [message]
        with pytest.raises(ValidationError) as info:
            class_of_action(m)
        assert str(info.value) == "invalid model:\n  " + message
        with pytest.raises(ValidationError, match="invalid model"):
            blowup(m, BlowupCenter(case=3, stratum=0))
    # the caller's list is a copy; emptying it leaves the model invalid
    validate_model(m).clear()
    assert validate_model(m) == [message]
    assert calls == [m]
    assert validate_model(replace(m)) == [message]


@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("group", ["C4xC4", "D4xC2", "S3xS3"])
def test_datum_symbols_match_the_reference_check(group, seed, monkeypatch):
    # every stratum and factor the enumerators yield, as given and in forms a
    # caller may write (stabilizer unsorted with a repeat, Y by shape alone, a
    # label of another space, weights negated, a curve's stabilizer and weight
    # under a surface label) or gets wrong (Y trivial, the whole carrier or
    # another Y of its order, so maybe of another shape; Y outside the carrier
    # or the group; one weight too few or too many; a nonabelian or trivial
    # stabilizer), checked by the engine and by the reference check on a
    # second group of the same table, so that neither warms the other's tables
    import burnloc.symbols
    from burnloc.groups import Subgroup, build_group
    from burnloc.models import FIXED_CURVE, RULED_DIVISOR, StratumDatum, _datum_symbol
    from burnloc.symbols import KIND_CURVE, KIND_JAC, KIND_SURFACE, carrier_quotient
    from oracles import reference_record_form
    from scenarios import (
        ScenarioPool, _datum, cyclic_table, dihedral_table, direct_product, generated_catalog, relabel,
        symmetric_table,
    )

    table = relabel({
        "C4xC4": direct_product(cyclic_table(4), cyclic_table(4)),
        "D4xC2": direct_product(dihedral_table(4), cyclic_table(2)),
        "S3xS3": direct_product(symmetric_table(3), symmetric_table(3)),
    }[group], seed)
    G, G_ref = (build_group({"kind": "table", "mul": table}) for _ in range(2))
    catalog = generated_catalog(G)
    pool = ScenarioPool(G, catalog)
    kinds = {FIXED_CURVE: KIND_CURVE, RULED_DIVISOR: KIND_SURFACE}
    data = []
    for sym in pool.curve + pool.surface + pool.jac:
        datum = _datum(G, sym)
        h = datum.stabilizer
        data += [datum, datum._replace(stabilizer=tuple(reversed(h)) + h[:1]),
                 datum._replace(residual_group=None),
                 datum._replace(residual="triv-C" if sym.kind == KIND_JAC else "triv-J")]
        if sym.kind != KIND_JAC:
            data.append(datum._replace(weights=tuple(tuple(-c for c in w) for w in datum.weights)))
        if sym.kind == KIND_CURVE:
            data.append(StratumDatum(RULED_DIVISOR, h, "triv-CxP1", datum.weights[:1], datum.residual_group))
        Q = carrier_quotient(G, h, sym.kind)
        outside = next((x for x in G.elements() if x not in Q.coset_of), G.order)
        same_order = [Y.elements for Y in all_subgroups(Q.group) if Y.order == len(sym.y) and Y.elements != sym.y]
        data += [datum._replace(residual_group=Q.preimage(y)) for y in (sym.y[:1], tuple(Q.group.elements()),
                                                                         *same_order[:2])]
        data.append(datum._replace(residual_group=h + (outside,)))
        if sym.kind != KIND_JAC:
            data += [datum._replace(weights=datum.weights[:-1]), datum._replace(weights=datum.weights * 2)]
        elif not Subgroup(G, h).is_abelian():
            data += [StratumDatum(kind, h, label, ((1,), (1,))[:count], None)
                     for kind, label, count in ((FIXED_CURVE, "triv-C", 2), (RULED_DIVISOR, "triv-CxP1", 1))]
    data += [StratumDatum(FIXED_CURVE, (0,), "triv-C", ((), ()), gens) for gens in (None, (0,))]

    def outcomes(ambient):
        m = ModelDescription(group=ambient, catalog=catalog)
        out = []
        for datum in data:
            kind, weights = (kinds[datum.kind], datum.weights) if isinstance(datum, StratumDatum) else (KIND_JAC, ())
            try:
                out.append(_datum_symbol(m, kind, datum, weights))
            except ValidationError as exc:
                out.append(str(exc))
        return out

    engine = outcomes(G)
    monkeypatch.setattr(burnloc.symbols, "_record_form", reference_record_form)
    assert outcomes(G_ref) == engine
    assert {type(x) for x in engine} == {Symbol, str}
    problems = "\n".join(x for x in engine if type(x) is str)
    for message in ("does not match declared shape", "residual_group elements", "symbols carry exactly",
                    "stabilizer must be nontrivial"):
        assert message in problems
    assert ("stabilizer must be abelian" in problems) == (group != "C4xC4")


def _b2_groups():
    for catalog, n in FIXTURE_PAIRS.items():
        yield pytest.param({"kind": "cyclic", "n": n}, catalog, id=catalog)
    for name, spec in LADDER_GROUPS.items():
        yield pytest.param(spec, None, id=name)
    yield pytest.param({"kind": "table", "mul": dihedral_table(32)}, None, id="D32")
    yield pytest.param({"kind": "table", "mul": relabel(dihedral_table(32), "D32")}, None, id="D32-relabelled")


@pytest.mark.parametrize("spec, fixture", _b2_groups())
def test_case3_blowup_changes_the_class_by_minus_the_reference_b2_vector(spec, fixture):
    # blowing up a fixed curve replaces its symbol by Theta1, Theta2 and its
    # Jacobian partner; the oracles build those terms without the engine's
    # blow-up formula, which both relation B2 and the case-3 blow-up read
    G = build_group(spec)
    catalog = fixture_catalog(fixture) if fixture else generated_catalog(G)
    context = BurnsideContext(G, catalog)
    curves = [s for s in context.symbols if s.kind == KIND_CURVE]
    for sym in curves:
        m = ModelDescription(G, catalog, (_datum(G, sym),))
        theta1, theta2 = _reference_b2_terms(context, sym)
        b2 = BurnsideClass.of(sym) - theta1 - theta2 - BurnsideClass.of(_reference_jac_partner(context, sym))
        out = blowup(m, BlowupCenter(case=3, stratum=0))
        assert class_of_action(m) == BurnsideClass.of(sym)
        assert class_of_action(out) - class_of_action(m) == -b2, text_form(sym, G)
    assert curves


def test_a_stabilizer_given_as_a_list_reads_as_its_tuple():
    # a list is no key of G's stabilizer records: it is read as the subgroup it
    # lists, on a group that has its record already and on one that has none
    catalog = fixture_catalog("hyperelliptic-Z2")
    shared = build_group({"kind": "cyclic", "n": 2})

    def answers(G, h):
        sym = Symbol("curve", h, (0,), "triv-C", ((1,), (1,)))
        m = ModelDescription(G, catalog, (StratumDatum("fixed_curve", h, "triv-C", ((1,), (1,))),))
        out = blowup(m, BlowupCenter(case=3, stratum=0))
        return (validate_symbol(sym, G, catalog), canonicalize(sym, G, catalog), validate_model(m),
                class_of_action(m), out.strata, out.jacobian_factors, class_of_action(out))

    expected = answers(shared, (0, 1))
    assert expected[0] == [] and len(expected[3].terms()) == 1
    for h in ([0, 1], [1, 0], (1, 0)):
        assert answers(shared, h) == answers(build_group({"kind": "cyclic", "n": 2}), h) == expected
