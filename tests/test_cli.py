import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from burnloc.catalog import catalog_to_json
from burnloc.cli import main
from burnloc.fixtures import fixture_catalog

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
    # ASCII decimal digits only: int() alone reads '1_0' as 10, ' +0' as 0 and '٣' as 3
    for raw in ("1_0,0,0", " +0,0,0", "0,0,٣", "1_0, +0,٣", "0, 1,0", "1,x,0", "0,-,0"):
        code, _, err = run(capsys, "invariant", "--counts", raw)
        assert code == 2 and "--counts entries must be integers" in err, raw
    code, _, err = run(capsys, "invariant", "--counts", "0,-1,0")  # a leading '-' parses, then is refused
    assert code == 2 and "nonnegative" in err


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


@pytest.mark.parametrize("group, catalog, message", [
    ('{"kind":"perm","degree":3,"gens":[[1,0,2],[1,2,0]]}', "hyperelliptic-Z2",
     "the degree map requires an abelian group"),
    (Z2, "elliptic-Z2", "the degree map requires a curve of genus >= 2"),
])
def test_phi_refuses_outside_its_domain_before_the_pass(capsys, tmp_path, group, catalog, message):
    # the pass would refuse first for another reason: over S3 the catalog lacks
    # an induce rule (exit 3), and the elliptic catalog's B4 relation mixes
    # stabilizers, which refuses the max-stabilizer filter
    zero = tmp_path / "zero.json"
    zero.write_text('{"terms": []}')
    code, out, err = run(capsys, "phi", "--group", group, "--catalog", catalog, "--class", str(zero))
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    monkeypatch.setenv("BURNLOC_ORDER_BOUND", "\uff16\uff14")
    code, _, err = run(capsys, "structure", "--group", Z2, "--catalog", "hyperelliptic-Z2")
    assert code == 2 and "BURNLOC_ORDER_BOUND must be an integer, got" in err


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
_CATALOG_ARGS = ("structure", "--group", Z2, "--catalog", "{file}")
_CATALOG = catalog_to_json(fixture_catalog("hyperelliptic-Z2"))


def _structure_on(group):
    return ("structure", "--group", json.dumps(group), "--catalog", "hyperelliptic-Z2")


def _catalog_with(label=None, **curve):
    # the fixture catalog with its first label or its curve edited
    first = {**_CATALOG["labels"][0], **(label or {})}
    return {**_CATALOG, "curve": {**_CATALOG["curve"], **curve}, "labels": [first, *_CATALOG["labels"][1:]]}


# each input is malformed for its loader; the error must name the JSON path of
# the offending value (None: the document itself is of the wrong type)
@pytest.mark.parametrize("argv, content, path", [
    (_structure_on({"kind": "cyclic", "n": "x"}), None, "n"),
    (_structure_on({"kind": "cyclic"}), None, "n"),
    (_structure_on({"kind": "perm", "degree": 3, "gens": [[1, 0, "a"]]}), None, "gens[0][2]"),
    (_CATALOG_ARGS, {"curve": {"id": "c", "genus": "two"}, "labels": []}, "curve.genus"),
    (("verdict", "--model", "{file}"), {
        "group": {"kind": "cyclic", "n": 2}, "catalog": "hyperelliptic-Z2", "jacobian_factors": [],
        "strata": [{"kind": "fixed_curve", "stabilizer": ["a"], "residual": "triv-C", "weights": [[1], [1]]}],
    }, "strata[0].stabilizer[0]"),
    (_CATALOG_ARGS, {"curve": {"id": "c", "genus": 2}, "rules": []}, "rules"),
    (("verdict", "--model", "{file}"), {
        "group": {"kind": "cyclic", "n": 2}, "catalog": "hyperelliptic-Z2", "curve": "x", "strata": [],
    }, "curve"),
    (_CLASS_ARGS, {"terms": [{**_CLASS_TERM, "symbol": {**_CLASS_TERM["symbol"], "h": "x"}}]}, "terms[0].symbol.h"),
    (_CLASS_ARGS, {"terms": [{**_CLASS_TERM, "coeff": "x"}]}, "terms[0].coeff"),
    (_CLASS_ARGS, [_CLASS_TERM], None),
    (_CENTER_ARGS, {**_CASE1_CENTER, "context": "x"}, "context"),
    (_CENTER_ARGS, {**_CASE1_CENTER, "context": []}, "context"),
    *((_CLASS_ARGS, {"terms": [{**_CLASS_TERM, "coeff": coeff}]}, "terms[0].coeff")
      for coeff in (0.5, 2.5, "3", True)),
    (_structure_on({"kind": "cyclic", "n": True}), None, "n"),
    (_structure_on({"kind": "abelian", "factors": [2.9]}), None, "factors[0]"),
    (_structure_on({"kind": "table", "mul": [[0, 1], [1, 0.5]]}), None, "mul[1][1]"),
    (_CATALOG_ARGS, _catalog_with({"faithful": "false"}), "labels[0].faithful"),
    (_CATALOG_ARGS, _catalog_with(hyperelliptic="no"), "curve.hyperelliptic"),
    (_CATALOG_ARGS, _catalog_with({"id": 7}), "labels[0].id"),
], ids=["cyclic-n-text", "cyclic-n-missing", "perm-entry-text", "catalog-genus-text", "model-stabilizer-text",
        "catalog-rules-list", "model-curve-text", "class-h-text", "class-coeff-text", "class-list",
        "center-context-text", "center-context-list", "class-coeff-half", "class-coeff-two-and-a-half",
        "class-coeff-numeric-text", "class-coeff-true", "cyclic-n-true", "abelian-factor-float",
        "table-entry-float", "label-faithful-text", "curve-hyperelliptic-text", "label-id-number"])
def test_malformed_input_exits_2(capsys, tmp_path, argv, content, path):
    file = tmp_path / "input.json"
    file.write_text(json.dumps(content))
    code, _, err = run(capsys, *(str(file) if a == "{file}" else a for a in argv))
    assert code == 2
    assert err.startswith("error: malformed ")
    if path is not None:
        assert re.search(rf": {re.escape(path)}(: expected | is missing)", err), err


def _member_tables():
    """Every member table of the loaders: a module-level tuple of (member, reader[, default])
    entries, or such a tuple among the values of a module-level dict."""
    import burnloc.models

    def is_table(value):
        return type(value) is tuple and value and all(
            type(e) is tuple and len(e) in (2, 3) and type(e[0]) is str and callable(e[1]) for e in value)

    for module in (burnloc.groups, burnloc.catalog, burnloc.models, burnloc.cli):
        for value in vars(module).values():
            yield from filter(is_table, value.values() if isinstance(value, dict) else (value,))


def test_readme_input_schemas_name_every_declared_member():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("## Input schemas")
    section = readme[start:readme.index("\n## ", start)]
    members = {entry[0] for table in _member_tables() for entry in table}
    # the scan reaches the tables of every loader: group, catalog, model, center and class
    assert {"gens", "diff_order", "target_h", "jacobian_factors", "context", "weight", "coeff"} <= members
    assert [m for m in sorted(members) if f'"{m}"' not in section and f"`{m}`" not in section] == []


@pytest.mark.parametrize("context", ["x", [], [["stabilizer", [0, 1]]], 3, None])
def test_center_context_must_be_an_object(context):
    # `"stabilizer" in "x"` is False, so a string or a list must be refused, not read as no context
    from burnloc.errors import ValidationError
    from burnloc.models import center_from_json

    with pytest.raises(ValidationError, match="malformed blow-up center JSON"):
        center_from_json({**_CASE1_CENTER, "context": context})
    assert center_from_json({**_CASE1_CENTER, "context": {}}) == center_from_json(_CASE1_CENTER)


_UNREADABLE = {
    "latin1": '{"kind": "cycl\xe9c", "n": 2}'.encode("latin-1"),
    "deep": ('{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
    "digits": ('{"kind": "cyclic", "n": ' + "9" * 5000 + "}").encode(),
    "syntax": b'{"kind": "cyclic", "n": 2',
}


@pytest.mark.parametrize("option", ["--group", "--catalog", "--class"])
@pytest.mark.parametrize("damage", sorted(_UNREADABLE))
def test_unreadable_json_exits_2_naming_the_file(capsys, tmp_path, damage, option):
    # a document that cannot be decoded or parsed is an input error, not a traceback
    file = tmp_path / "input.json"
    file.write_bytes(_UNREADABLE[damage])
    args = {"--group": Z2, "--catalog": "hyperelliptic-Z2", "--class": str(tmp_path / "zero.json")}
    (tmp_path / "zero.json").write_text('{"terms": []}')
    args[option] = str(file)
    code, out, err = run(capsys, "phi", *(x for pair in args.items() for x in pair))
    assert (code, out) == (2, "") and err.startswith(f"error: cannot read JSON file {str(file)!r}: "), err
    assert len(err.splitlines()) == 1
    if damage != "latin1":  # the same text inline
        args[option] = _UNREADABLE[damage].decode()
        code, out, err = run(capsys, "phi", *(x for pair in args.items() for x in pair))
        assert (code, out) == (2, "") and err.startswith("error: cannot read inline JSON: "), err


def test_unknown_fixture_or_file_lists_the_fixtures(capsys):
    code, _, err = run(capsys, "structure", "--group", Z2, "--catalog", "no-such-catalog")
    assert code == 2 and err.startswith("error: unknown catalog fixture or file 'no-such-catalog'; available")
    code, _, err = run(capsys, "structure", "--group", "no-such-group", "--catalog", "hyperelliptic-Z2")
    assert (code, err) == (2, "error: not a file or inline JSON object: 'no-such-group'\n")


def test_a_19_digit_factor_in_a_catalog_does_not_hang(tmp_path):
    # 10**18 + 3 is prime: finding its invariant factors by trial division
    # would run for minutes, the divisor chain answers at once
    big = 10**18 + 3
    data = catalog_to_json(fixture_catalog("hyperelliptic-Z2"))
    data["labels"].append({"id": "big-C", "space": "curve", "group_shape": [big], "faithful": True, "trivial": False})
    data["rules"]["induce"].append({"h": [big], "curve_label": "triv-C", "weights": "equal", "target": "triv-CxP1"})
    (tmp_path / "big.json").write_text(json.dumps(data))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "burnloc.cli", "structure", "--group", Z2, "--catalog", str(tmp_path / "big.json"),
         "--no-banner"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "free rank: 1\ntorsion: (none)\n", "")
