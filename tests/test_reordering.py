"""The order in which an input lists its data carries no meaning: a fixture
catalog or model with every list reversed (labels, rule lists, strata,
Jacobian factors, stabilizers and residual groups) must give, through `main`,
byte for byte the reports of the fixture itself."""

import copy
import json
from pathlib import Path

import pytest

import burnloc.fixtures
from burnloc.cli import main
from burnloc.fixtures import fixture_catalog
from burnloc.groups import build_group
from burnloc.relations import generate_relations
from burnloc.symbols import BurnsideContext, carrier_quotient

FIXTURES = Path(burnloc.fixtures.__file__).parent
GROUPS = {"Z3-basic": '{"kind":"cyclic","n":3}'}  # every other fixture catalog acts through C2


def _fixture(kind, name):
    return json.loads((FIXTURES / kind / f"{name}.json").read_text())


def _reversed_catalog(doc):
    doc = copy.deepcopy(doc)
    doc["labels"].reverse()
    for rules in doc.get("rules", {}).values():
        rules.reverse()
    return doc


def _reversed_model(doc):
    doc = copy.deepcopy(doc)
    catalog = doc["catalog"]
    doc["catalog"] = _reversed_catalog(_fixture("catalogs", catalog) if isinstance(catalog, str) else catalog)
    for key in ("strata", "jacobian_factors"):
        data = doc.get(key, [])
        data.reverse()
        for datum in data:
            datum["stabilizer"].reverse()
            datum.get("residual_group", []).reverse()
    return doc


def _reports(capsys, argvs):
    out = []
    for argv in argvs:
        for mode in ("--json", "--no-banner"):
            out.append((main([*argv, mode]), capsys.readouterr()))
    return out


def _classes(group, name):
    """Three classes over the fixture catalog: the terms of its first relation, the first of those
    terms alone, and zero."""
    G, catalog = build_group(json.loads(group)), fixture_catalog(name)
    terms = generate_relations(G, catalog, BurnsideContext(G, catalog))[0].vector.terms()
    term = [{"coeff": c, "symbol": {"kind": s.kind, "h": list(s.h), "action": s.action,
                                    "weights": [list(w) for w in s.weights],
                                    "y_reps": [carrier_quotient(G, s.h, s.kind).reps[i] for i in s.y]}}
            for s, c in terms]
    return [json.dumps({"terms": t}) for t in (term, term[:1], [])]


@pytest.mark.parametrize("name", burnloc.fixtures.catalog_names())
def test_a_reversed_catalog_gives_the_same_reports(capsys, name):
    group = GROUPS.get(name, '{"kind":"cyclic","n":2}')
    a, b, zero = _classes(group, name)

    def argvs(catalog):
        shared = ["--group", group, "--catalog", catalog]
        return [["structure", *shared], ["structure", *shared, "--filter", "max-stabilizer"],
                ["relations", *shared], *(["equal", *shared, "--a", a, "--b", other] for other in (b, zero))]

    expected = _reports(capsys, argvs(name))
    assert expected[0][0] == 0  # the filter refuses elliptic-Z2, whose B4 relation mixes stabilizers
    assert _reports(capsys, argvs(json.dumps(_reversed_catalog(_fixture("catalogs", name))))) == expected


@pytest.mark.parametrize("name", burnloc.fixtures.model_names())
def test_a_reversed_model_gives_the_same_reports(capsys, name):
    def argvs(model):
        return [["class", "--model", model], ["invariant", "--model", model], ["verdict", "--model", model]]

    expected = _reports(capsys, argvs(name))
    assert _reports(capsys, argvs(json.dumps(_reversed_model(_fixture("models", name))))) == expected


@pytest.mark.parametrize("counts", [None, [0, 1, 0]])
def test_fixed_locus_counts_read_the_checked_stabilizer(capsys, counts):
    # [1, 0] is the stabilizer [0, 1] of sxp1-involution's one ruled divisor, listed in another order
    model = _fixture("models", "sxp1-involution")
    model["strata"][0]["stabilizer"] = [1, 0]
    model.pop("counts")
    if counts is not None:
        model["counts"] = counts
    for command in ("class", "invariant", "verdict"):
        expected = _reports(capsys, [[command, "--model", "sxp1-involution"]])
        assert _reports(capsys, [[command, "--model", json.dumps(model)]]) == expected
    (code, report), _ = expected
    assert code == 0 and json.loads(report.out)["counts"] == {"I1": 0, "I2": 1, "I3": 0}
