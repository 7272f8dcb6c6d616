from dataclasses import replace

import pytest

from burnloc.errors import ValidationError
from burnloc.fixtures import fixture_center, fixture_model, model_names
from burnloc.models import (
    BlowupCenter,
    JacobianFactorDatum,
    ModelDescription,
    blowup,
    class_of_action,
    invariant_I,
    invariant_counts,
    validate_model,
    verdict,
    verify_blowup_invariance,
)
from burnloc.relations import classes_equal, relation_lattice
from burnloc.symbols import BurnsideClass, text_form


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


@pytest.mark.parametrize("name, center", [
    ("quadric-bundle", BlowupCenter(case=3, stratum=0)),
    ("elliptic-empty", BlowupCenter(case=1, curve_label="transl-C", y_reps=(1,))),
    ("elliptic-empty", "elliptic-bullet2"),
])
def test_class_after_blowup_checks_each_model_once(monkeypatch, name, center):
    if isinstance(center, str):
        center = fixture_center(center)
    calls = _count_model_symbols(monkeypatch)
    m = fixture_model(name)
    out = blowup(m, center)
    lattice = relation_lattice(m.group, m.catalog)
    for _ in range(3):
        assert classes_equal(class_of_action(m), class_of_action(out), lattice)
        assert validate_model(out) == []
    assert len(calls) == 2 and calls[0] is m and calls[1] is out
    # a fresh object with the same fields is checked afresh, to the same answer
    again = replace(out)
    assert again is not out and again == out
    assert class_of_action(again) == class_of_action(out)
    assert validate_model(again) == validate_model(out)
    assert len(calls) == 3 and calls[2] is again


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
