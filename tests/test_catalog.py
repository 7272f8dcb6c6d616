import re

import pytest

from burnloc.catalog import (
    ActionCatalog,
    ActionLabel,
    CurveProfile,
    GroupShape,
    catalog_from_json,
    catalog_to_json,
    ensure_valid_catalog,
    validate_catalog,
)
from burnloc.errors import CatalogIncompleteError, ValidationError
from burnloc.fixtures import catalog_names, fixture_catalog
from burnloc.groups import Subgroup, build_group, full_subgroup


def test_builtin_catalogs_are_valid():
    assert set(catalog_names()) == {
        "hyperelliptic-Z2", "nonhyperelliptic-Z2-exotic", "elliptic-Z2", "Z3-basic",
    }
    for name in catalog_names():
        assert validate_catalog(fixture_catalog(name)) == []


def _patch(cat_json, **edits):
    import copy
    data = copy.deepcopy(cat_json)
    data.update(edits)
    return data


def base_json():
    return catalog_to_json(fixture_catalog("hyperelliptic-Z2"))


def test_genus_one_jacobian_needs_underlying_action():
    data = base_json()
    data["curve"]["genus"] = 1
    data["curve"]["hyperelliptic"] = False
    data["labels"] = [
        {"id": "triv-C", "space": "curve", "group_shape": [], "faithful": True, "trivial": True},
        {"id": "lost-J", "space": "jacobian", "group_shape": [2], "faithful": True, "trivial": False},
    ]
    data["rules"] = {"induce": [], "jacobian_of_curve": [], "genus_one_extension": []}
    problems = validate_catalog(catalog_from_json(data))
    assert any("must come from a declared curve action" in p for p in problems)


def test_induce_rule_target_must_be_ruled_surface():
    data = base_json()
    data["rules"]["induce"][0]["target"] = "triv-C"
    problems = validate_catalog(catalog_from_json(data))
    assert any("must live on ruled_surface" in p for p in problems)


def test_dangling_rule_reference():
    data = base_json()
    data["rules"]["jacobian_of_curve"].append({"source": "missing-C", "target": "triv-J"})
    problems = validate_catalog(catalog_from_json(data))
    assert any("dangling label 'missing-C'" in p for p in problems)


def test_duplicate_label_ids_rejected():
    data = base_json()
    data["labels"].append(dict(data["labels"][0]))
    problems = validate_catalog(catalog_from_json(data))
    assert any("duplicate label id" in p for p in problems)


def test_genus_zero_rejected():
    data = base_json()
    data["curve"]["genus"] = 0
    problems = validate_catalog(catalog_from_json(data))
    assert any("genus must be >= 1" in p for p in problems)


def test_induce_rule_order_arithmetic():
    data = base_json()
    # declare a target whose group order cannot come from the construction
    data["labels"].append({
        "id": "big-CxP1", "space": "ruled_surface", "group_shape": [2],
        "faithful": True, "trivial": False,
    })
    data["rules"]["induce"].append(
        {"h": [2], "curve_label": "triv-C", "weights": "equal", "target": "big-CxP1"}
    )
    problems = validate_catalog(catalog_from_json(data))
    assert any("target group order" in p for p in problems)


def test_trivial_action_of_nontrivial_group_is_not_faithful():
    data = base_json()
    data["labels"].append({
        "id": "bad", "space": "jacobian", "group_shape": [2],
        "faithful": True, "trivial": True, "from_curve": True,
    })
    problems = validate_catalog(catalog_from_json(data))
    assert any("not faithful" in p for p in problems)


def test_induced_surface_action_lookup(hyper_cat, z3_cat):
    assert hyper_cat.induced_surface_action((2,), "triv-C", 1).target == "triv-CxP1"
    assert z3_cat.induced_surface_action((3,), "triv-C", 1).target == "triv-CxP1"
    with pytest.raises(CatalogIncompleteError, match="InduceRule"):
        hyper_cat.induced_surface_action((4,), "triv-C", 1)
    with pytest.raises(CatalogIncompleteError, match="diff_order=2"):
        hyper_cat.induced_surface_action((2,), "triv-C", 2)


def test_jacobian_of_curve_lookup(hyper_cat, elliptic_cat):
    assert hyper_cat.jacobian_of_curve_action("triv-C").target == "triv-J"
    assert hyper_cat.jacobian_of_curve_action("inv-C").target == "inv-J"
    assert elliptic_cat.jacobian_of_curve_action("transl-C").target == "trivG-J"
    with pytest.raises(CatalogIncompleteError, match="JacobianOfCurveRule"):
        hyper_cat.jacobian_of_curve_action("no-such-action")


def test_extension_rules_only_for_genus_one(z3_cat):
    data = catalog_to_json(z3_cat)
    data["rules"]["genus_one_extension"].append(
        {"h": [], "label": "triv-J", "trivial_part": "all", "target_h": [], "target_label": "triv-J"}
    )
    problems = validate_catalog(catalog_from_json(data))
    assert any("genus-1" in p for p in problems)


def test_extension_rule_order_arithmetic(elliptic_cat):
    data = catalog_to_json(elliptic_cat)
    data["rules"]["genus_one_extension"][0]["target_h"] = [4]
    problems = validate_catalog(catalog_from_json(data))
    assert any("|H1|" in p for p in problems)


def test_json_round_trip(hyper_cat):
    again = catalog_from_json(catalog_to_json(hyper_cat), name=hyper_cat.name)
    assert again == hyper_cat


def test_ensure_valid_raises_with_report():
    data = base_json()
    data["curve"]["genus"] = 0
    with pytest.raises(ValidationError, match="invalid catalog"):
        ensure_valid_catalog(catalog_from_json(data))


def test_group_shape_matching():
    z4 = build_group({"kind": "cyclic", "n": 4})
    s3 = build_group({"kind": "perm", "degree": 3, "gens": [[1, 0, 2], [1, 2, 0]]})
    shape4 = GroupShape.abelian([4])
    assert shape4.matches(full_subgroup(z4))
    assert not shape4.matches(Subgroup(z4, (0, 2)))
    assert not GroupShape.abelian([2, 2]).matches(full_subgroup(z4))
    coarse = GroupShape.from_json({"order": 6, "abelian": False})
    assert coarse.matches(full_subgroup(s3))
    assert not coarse.matches(full_subgroup(build_group({"kind": "cyclic", "n": 6})))
    with pytest.raises(ValidationError):
        GroupShape.from_json("junk")
    # a nonabelian shape's order is positive, as an abelian factor is; the error names the order's path
    for order in (0, -4):
        refused = f"order: expected a positive integer, got {order}$"
        with pytest.raises(ValidationError, match=f"^bad group_shape: {refused}"):
            GroupShape.from_json({"order": order, "abelian": False})
        data = base_json()
        data["labels"][0]["group_shape"] = {"order": order, "abelian": False}
        with pytest.raises(ValidationError, match=rf"^malformed catalog JSON: labels\[0\]\.group_shape\.{refused}"):
            catalog_from_json(data)
    # a shape is kept once asked for; a subgroup of another order is refused before its shape is built
    assert z4.shapes == {(0, 1, 2, 3): shape4} and s3.shapes == {tuple(range(6)): coarse}
    assert GroupShape.of(Subgroup(z4, (0,))) == GroupShape.abelian([1]) == GroupShape.abelian([])


def test_induced_surface_action_full_signature(z2, z3, z3_cat, hyper_cat):
    from burnloc.abelian import abelian_structure
    from burnloc.symbols import carrier_quotient
    from oracles import reference_order, reference_sum

    # involution case: H = G, Y = 1, trivial curve action, b1 = b2 = 1;
    # the order-3 analogue likewise
    for G, catalog in ((z2, hyper_cat), (z3, z3_cat)):
        H = full_subgroup(G)
        Q = carrier_quotient(G, H.elements, "curve")
        Y = Subgroup(Q.group, (0,))
        struct = abelian_structure(H)
        order = reference_order(struct, reference_sum(struct, (1, (1,)), (-1, (1,))))
        label = catalog.label(catalog.induced_surface_action(struct.invariant_factors, "triv-C", order).target)
        assert label.id == "triv-CxP1"
        # the declared target order is the constructed group order |Y| * ord(b1 - b2)
        assert label.group_shape.order == Y.order * order
    assert hyper_cat.jacobian_of_curve_action("inv-C").target == "inv-J"


def test_validate_catalog_runs_once_per_catalog_object(monkeypatch):
    # a criterion-6-style loop: random models, their blow-ups and classes
    import random

    import burnloc.catalog
    from scenarios import ScenarioPool, run_scenarios
    from burnloc.relations import relation_lattice

    data = base_json()  # loading the fixture checks the fixture's own catalog object
    calls = []
    real = burnloc.catalog.validate_catalog

    def counting(catalog):
        calls.append(catalog)
        return real(catalog)

    monkeypatch.setattr(burnloc.catalog, "validate_catalog", counting)
    G = build_group({"kind": "cyclic", "n": 2})
    catalog = catalog_from_json(data, name="hyperelliptic-Z2")  # a fresh, unchecked object
    pool = ScenarioPool(G, catalog)
    lattice = relation_lattice(G, catalog)
    results, runs, _ = run_scenarios(random.Random(20250812), pool, lattice, 60)
    assert all(results) and sum(runs.values()) > 0
    assert len(calls) == 1 and calls[0] is catalog
    # the pure function still runs on every call
    assert burnloc.catalog.validate_catalog(catalog) == [] and len(calls) == 2


def test_invalid_catalog_reported_once_checked_on_every_call(monkeypatch):
    import burnloc.catalog

    data = base_json()  # loading the fixture checks the fixture's own catalog object
    calls = []
    real = burnloc.catalog.validate_catalog
    monkeypatch.setattr(burnloc.catalog, "validate_catalog", lambda c: calls.append(c) or real(c))
    data["curve"].update(genus=0, hyperelliptic=False)
    catalog = catalog_from_json(data)
    for _ in range(3):
        with pytest.raises(ValidationError) as info:
            ensure_valid_catalog(catalog)
        assert str(info.value) == "invalid catalog:\n  curve 'C-hyp2': genus must be >= 1, got 0"
    assert len(calls) == 1


def test_label_lookup_keeps_first_of_duplicate_ids():
    shape = GroupShape.abelian([2])
    first = ActionLabel(id="dup-C", space="curve", group_shape=shape)
    second = ActionLabel(id="dup-C", space="ruled_surface", group_shape=shape)
    catalog = ActionCatalog(
        curve=CurveProfile(id="C", genus=2),
        labels=(first, second, ActionLabel(id="other-J", space="jacobian", group_shape=shape)),
    )
    assert catalog.label("dup-C") is first
    assert catalog.label("other-J").space == "jacobian"
    assert catalog.has_label("dup-C") and not catalog.has_label("nope")
    assert any("duplicate label id 'dup-C'" in p for p in validate_catalog(catalog))
    for bad in ("nope", 7):
        with pytest.raises(ValidationError, match=r"^unknown action label"):
            catalog.label(bad)


def test_non_string_reference_is_refused_at_the_boundary():
    # JSON may carry a list where a label id belongs; the reader refuses it
    # and names its path, so no lookup ever sees a non-string id
    data = base_json()
    data["labels"].append({
        "id": "odd-J", "space": "jacobian", "group_shape": [], "faithful": True, "trivial": True,
        "from_curve": True, "underlying_curve_action": ["triv-C"],
    })
    at = f"labels[{len(data['labels']) - 1}].underlying_curve_action"
    with pytest.raises(ValidationError, match=rf"^malformed catalog JSON: {re.escape(at)}: expected a string"):
        catalog_from_json(data)
