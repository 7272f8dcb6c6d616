"""Every input refusal of the catalog, model and group checks that no other
test names, run through `main`: each must exit 2 with one `error:` message,
which this table pins whole."""

import json
from pathlib import Path

import pytest

import burnloc.fixtures
from burnloc.cli import main

FIXTURES = Path(burnloc.fixtures.__file__).parent
Z2 = '{"kind":"cyclic","n":2}'
HYPER, ELLIPTIC = "hyperelliptic-Z2", "elliptic-Z2"


def _fixture(kind, name):
    return json.loads((FIXTURES / kind / f"{name}.json").read_text())


def _label(label_id, **members):
    """An edit that sets members of the catalog's label `label_id`."""
    def edit(catalog):
        next(lab for lab in catalog["labels"] if lab["id"] == label_id).update(members)
    return edit


def _rule(kind, index, **members):
    """An edit that sets members of the catalog's rule `index` of the list `kind`."""
    def edit(catalog):
        catalog["rules"][kind][index].update(members)
    return edit


def _add(kind, entry):
    """An edit that appends an entry to the catalog's labels or to its rule list `kind`."""
    def edit(catalog):
        (catalog["labels"] if kind == "labels" else catalog["rules"][kind]).append(entry)
    return edit


HALF_TURN = {"id": "half-CxP1", "space": "ruled_surface", "group_shape": [2], "faithful": False}
OTHER_J = {"id": "other-J", "space": "jacobian", "group_shape": [], "trivial": True, "from_curve": True,
           "underlying_curve_action": "triv-C"}
INDUCE = "InduceRule(C2,triv-C,{})"
EXTENSION = "GenusOneExtensionRule(1,trivG-J)"
CATALOG_REFUSALS = [  # (fixture catalog, edits, the problems listed after "invalid catalog:")
    (HYPER, [_label("triv-C", trivial=False)],
     ["label 'triv-C': the trivial group acts trivially and (vacuously) faithfully"]),
    (HYPER, [_label("inv-C", faithful=False)], ["label 'inv-C': curve actions must be faithful"]),
    (HYPER, [_add("labels", HALF_TURN)], ["label 'half-CxP1': ruled_surface actions must be faithful"]),
    (HYPER, [_label("triv-C", from_curve=True)], ["label 'triv-C': from_curve data only applies to jacobian labels"]),
    (ELLIPTIC, [_label("triv-J", underlying_curve_action="nowhere-C")],
     ["label 'triv-J': dangling underlying_curve_action",
      "JacobianOfCurveRule(triv-C): genus-1 target must record 'triv-C' as its underlying curve action"]),
    (ELLIPTIC, [_label("triv-J", underlying_curve_action="triv-CxP1")],
     ["label 'triv-J': underlying_curve_action must be a curve label",
      "JacobianOfCurveRule(triv-C): genus-1 target must record 'triv-C' as its underlying curve action"]),
    (HYPER, [_rule("induce", 0, weights={"diff_order": 1})],
     [f"{INDUCE.format('diff_order=1')}: weight pattern must be 'equal' or an integer diff order >= 2"]),
    (HYPER, [_rule("induce", 0, weights={"diff_order": 3})],
     [f"{INDUCE.format('diff_order=3')}: diff order 3 does not divide |H| = 2",
      f"{INDUCE.format('diff_order=3')}: target group order 1 != |Y|*[H:ker] = 3"]),
    (HYPER, [_rule("jacobian_of_curve", 0, target="inv-J")],
     ["JacobianOfCurveRule(triv-C): target shape C2 != source shape 1"]),
    (HYPER, [_label("triv-J", from_curve=False)],
     ["JacobianOfCurveRule(triv-C): target 'triv-J' must be flagged from_curve"]),
    (ELLIPTIC, [_label("triv-J", underlying_curve_action="inv-C")],
     ["JacobianOfCurveRule(triv-C): genus-1 target must record 'triv-C' as its underlying curve action"]),
    (ELLIPTIC, [_rule("genus_one_extension", 0, trivial_part="some")],
     [f"{EXTENSION}: trivial_part must be 'all' or 'none'"]),
    (ELLIPTIC, [_rule("genus_one_extension", 0, label="neg-J")],
     ["GenusOneExtensionRule(1,neg-J): trivial_part='all' needs a label declared trivial"]),
    (ELLIPTIC, [_rule("genus_one_extension", 0, trivial_part="none", target_h=[])],
     [f"{EXTENSION}: trivial_part='none' needs a faithful label"]),
    (ELLIPTIC, [_rule("genus_one_extension", 0, target_label="neg-J")],
     [f"{EXTENSION}: Y/Y1 is trivial, so the target label must have trivial shape"]),
    # the catalog looks a rule up by all it holds but its target, so a second rule with the same key is refused
    (HYPER, [_add("induce", {"h": [2], "curve_label": "triv-C", "weights": "equal", "target": "triv-CxP1"})],
     [f"duplicate rule {INDUCE.format('equal')}"]),
    (HYPER, [_add("labels", OTHER_J), _add("jacobian_of_curve", {"source": "triv-C", "target": "other-J"})],
     ["duplicate rule JacobianOfCurveRule(triv-C)"]),
]


@pytest.mark.parametrize("base,edits,problems", CATALOG_REFUSALS)
def test_every_catalog_refusal_exits_2_through_main(capsys, base, edits, problems):
    catalog = _fixture("catalogs", base)
    for edit in edits:
        edit(catalog)
    assert main(["structure", "--group", Z2, "--catalog", json.dumps(catalog)]) == 2
    assert capsys.readouterr() == ("", "error: invalid catalog:\n  " + "\n  ".join(problems) + "\n")


S3 = {"kind": "perm", "degree": 3, "gens": [[1, 0, 2], [1, 2, 0]]}
OTHER_REFUSALS = [  # (argv, the one error line)
    (["class", "--model", json.dumps({**_fixture("models", "sxp1-involution"), "counts": [0, 1]})],
     "counts must be a triple [I1, I2, I3]"),
    (["invariant", "--model", json.dumps({"group": S3, "catalog": HYPER})],
     "fixed-locus counts require an abelian group"),
    (["structure", "--group", '{"kind":"table","mul":[]}', "--catalog", HYPER],
     "a group needs at least the identity element"),
    (["structure", "--group", '{"kind":"table","mul":[[0,1]]}', "--catalog", HYPER],
     "multiplication table must be square"),
    (["structure", "--group", '{"kind":"table","mul":[[0,1],[1,2]]}', "--catalog", HYPER],
     "table entries must be element indices"),
]


@pytest.mark.parametrize("argv,message", OTHER_REFUSALS)
def test_every_model_and_group_refusal_exits_2_through_main(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
