import json

import pytest

from burnloc.cli import main

Z2 = '{"kind":"cyclic","n":2}'
Z4 = '{"kind":"cyclic","n":4}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_structure_json_golden(capsys):
    code, out, _ = run(capsys, "structure", "--group", Z2, "--catalog", "hyperelliptic-Z2", "--json")
    assert code == 0
    assert json.loads(out) == {"free_rank": 1, "torsion": []}


def test_structure_text_banner(capsys):
    code, out, _ = run(capsys, "structure", "--group", Z2, "--catalog", "hyperelliptic-Z2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("burnloc ")
    assert lines[1:] == ["free rank: 1", "torsion: (none)"]
    code, out, _ = run(capsys, "structure", "--group", Z2, "--catalog", "hyperelliptic-Z2", "--no-banner")
    assert out.splitlines() == ["free rank: 1", "torsion: (none)"]


def test_output_is_deterministic(capsys):
    args = ("relations", "--group", Z2, "--catalog", "elliptic-Z2", "--dump", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    json.loads(first)  # report re-parses


def test_invariant_counts_golden(capsys):
    code, out, _ = run(capsys, "invariant", "--counts", "0,1,0", "--json")
    assert code == 0
    assert json.loads(out) == {"I1": 0, "I2": 1, "I3": 0, "I": -2, "obstructed": True}
    code, out, _ = run(capsys, "invariant", "--counts", "0,1,0", "--no-banner")
    assert "I = -I1 - 2*I2 + I3 = -2" in out
    assert "OBSTRUCTED (not linearizable, not projectively linearizable)" in out


def test_invariant_takes_exactly_one_source(capsys):
    code, _, err = run(capsys, "invariant")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "invariant", "--counts", "1,2")
    assert code == 2 and "three comma-separated" in err


def test_equal_zero_classes(capsys, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text('{"terms": []}')
    code, out, _ = run(capsys, "equal", "--group", Z2, "--catalog", "hyperelliptic-Z2",
                       "--a", str(zero), "--b", str(zero), "--json")
    assert code == 0
    assert json.loads(out) == {"equal": True}


def test_equal_detects_b1_identity(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"terms": [
        {"coeff": 1, "symbol": {"kind": "curve", "h": [0, 1], "action": "triv-C", "weights": [[1], [1]]}},
    ]}))
    b.write_text(json.dumps({"terms": [
        {"coeff": -1, "symbol": {"kind": "jac", "h": [0, 1], "action": "triv-J"}},
    ]}))
    code, out, _ = run(capsys, "equal", "--group", Z2, "--catalog", "hyperelliptic-Z2",
                       "--a", str(a), "--b", str(b), "--json")
    assert code == 0 and json.loads(out) == {"equal": True}


def test_class_and_verdict_reports(capsys):
    code, out, _ = run(capsys, "class", "--model", "sxp1-involution", "--json")
    assert code == 0
    assert json.loads(out)["class"] == [
        {"coeff": 1, "symbol": "surface[H=C2{0,1};Y=1{0};act=triv-CxP1;w=(1)]"}
    ]
    code, out, _ = run(capsys, "verdict", "--model", "three-nodal-cubic", "--json")
    report = json.loads(out)
    assert report["counts"] == {"I1": 0, "I2": 0, "I3": 1}
    assert report["invariant_I"] == 1 and report["phi"] == 1
    assert report["consistent"] and report["obstructed"]


def test_verify_blowup_subcommand(capsys):
    code, out, _ = run(capsys, "verify-blowup", "--model", "elliptic-fixed-curve",
                       "--center", "elliptic-bullet1", "--json")
    assert code == 0 and json.loads(out) == {"holds": True}


def test_phi_subcommand_projects_first(capsys, tmp_path):
    cls = tmp_path / "cls.json"
    cls.write_text(json.dumps({"terms": [
        {"coeff": 1, "symbol": {"kind": "curve", "h": [0, 1], "action": "triv-C", "weights": [[1], [1]]}},
        {"coeff": 5, "symbol": {"kind": "jac", "h": [0], "action": "triv-J"}},
    ]}))
    code, out, _ = run(capsys, "phi", "--group", Z2, "--catalog", "hyperelliptic-Z2",
                       "--class", str(cls), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["phi"] == -1  # the H=1 term is filtered away
    assert len(report["filtered_class"]) == 1


def test_relations_summary_and_dump(capsys):
    code, out, _ = run(capsys, "relations", "--group", Z2, "--catalog", "hyperelliptic-Z2", "--json")
    assert code == 0
    assert json.loads(out) == {"count": 4, "by_rule": {"B1": 1, "B2": 1, "B3": 2}}
    code, out, _ = run(capsys, "relations", "--group", Z2, "--catalog", "hyperelliptic-Z2",
                       "--dump", "--json")
    dump = json.loads(out)
    assert len(dump["relations"]) == 4
    assert {r["rule"] for r in dump["relations"]} == {"B1", "B2", "B3"}


def test_validation_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"curve": {"id": "c", "genus": 0}, "labels": []}')
    code, _, err = run(capsys, "structure", "--group", Z2, "--catalog", str(bad))
    assert code == 2
    assert "genus" in err


def test_catalog_incomplete_exits_3(capsys):
    code, _, err = run(capsys, "structure", "--group", Z4, "--catalog", "hyperelliptic-Z2")
    assert code == 3
    assert "missing InduceRule" in err


def test_unknown_fixture_exits_2(capsys):
    code, _, err = run(capsys, "verdict", "--model", "no-such-model")
    assert code == 2
    assert "unknown model fixture" in err


def test_order_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("BURNLOC_ORDER_BOUND", "3")
    code, _, err = run(capsys, "structure", "--group", Z4, "--catalog", "hyperelliptic-Z2")
    assert code == 2 and "exceeds bound 3" in err


def test_inline_group_and_model_file(capsys, tmp_path):
    model = {
        "name": "inline",
        "group": {"kind": "cyclic", "n": 2},
        "catalog": "hyperelliptic-Z2",
        "strata": [
            {"kind": "fixed_curve", "stabilizer": [0, 1], "residual": "triv-C", "weights": [[1], [1]]}
        ],
        "jacobian_factors": [],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, _ = run(capsys, "verdict", "--model", str(path), "--json")
    assert code == 0
    assert json.loads(out)["invariant_I"] == -1


_CLASS_TERM = {"coeff": 1, "symbol": {"kind": "curve", "h": [0, 1], "action": "triv-C", "weights": [[1], [1]]}}
_CLASS_ARGS = ("phi", "--group", Z2, "--catalog", "hyperelliptic-Z2", "--class", "{file}")
_CASE1_CENTER = {"case": 1, "curve_label": "triv-C", "y_reps": []}  # the fixture elliptic-bullet5
_CENTER_ARGS = ("verify-blowup", "--model", "elliptic-fixed-curve", "--center", "{file}")


@pytest.mark.parametrize("argv, content", [
    (("structure", "--group", '{"kind":"cyclic","n":"x"}', "--catalog", "hyperelliptic-Z2"), None),
    (("structure", "--group", '{"kind":"cyclic"}', "--catalog", "hyperelliptic-Z2"), None),
    (("structure", "--group", '{"kind":"perm","degree":3,"gens":[[1,0,"a"]]}', "--catalog", "hyperelliptic-Z2"),
     None),
    (("structure", "--group", Z2, "--catalog", "{file}"), {"curve": {"id": "c", "genus": "two"}, "labels": []}),
    (("verdict", "--model", "{file}"), {
        "group": {"kind": "cyclic", "n": 2}, "catalog": "hyperelliptic-Z2", "jacobian_factors": [],
        "strata": [{"kind": "fixed_curve", "stabilizer": ["a"], "residual": "triv-C", "weights": [[1], [1]]}],
    }),
    (("structure", "--group", Z2, "--catalog", "{file}"), {"curve": {"id": "c", "genus": 2}, "rules": []}),
    (("verdict", "--model", "{file}"), {
        "group": {"kind": "cyclic", "n": 2}, "catalog": "hyperelliptic-Z2", "curve": "x", "strata": [],
    }),
    (_CLASS_ARGS, {"terms": [{**_CLASS_TERM, "symbol": {**_CLASS_TERM["symbol"], "h": "x"}}]}),
    (_CLASS_ARGS, {"terms": [{**_CLASS_TERM, "coeff": "x"}]}),
    (_CLASS_ARGS, [_CLASS_TERM]),
    (_CENTER_ARGS, {**_CASE1_CENTER, "context": "x"}),
    (_CENTER_ARGS, {**_CASE1_CENTER, "context": []}),
], ids=["cyclic-n-text", "cyclic-n-missing", "perm-entry-text", "catalog-genus-text", "model-stabilizer-text",
        "catalog-rules-list", "model-curve-text", "class-h-text", "class-coeff-text", "class-list",
        "center-context-text", "center-context-list"])
def test_malformed_input_exits_2(capsys, tmp_path, argv, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, _, err = run(capsys, *(str(path) if a == "{file}" else a for a in argv))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("context", ["x", [], [["stabilizer", [0, 1]]], 3, None])
def test_center_context_must_be_an_object(context):
    # `"stabilizer" in "x"` is False, so a string or a list must be refused, not read as no context
    from burnloc.errors import ValidationError
    from burnloc.models import center_from_json

    with pytest.raises(ValidationError, match="malformed blow-up center JSON"):
        center_from_json({**_CASE1_CENTER, "context": context})
    assert center_from_json({**_CASE1_CENTER, "context": {}}) == center_from_json(_CASE1_CENTER)
