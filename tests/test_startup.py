"""What a `burnloc` process imports before it does any work.

Each check runs in a fresh `python -S` interpreter (no site packages, whose
start-up hooks may import modules of their own) with only the source tree on
the path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import burnloc.models  # loaded up front here, for the report the lazy import must match
from burnloc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "fractions", "importlib.resources", "burnloc.models", "argparse", "gettext")
C2 = '{"kind":"cyclic","n":2}'

PROBE = f"""
import contextlib, io, json, sys
import burnloc.cli

def loaded():
    return [name for name in {HEAVY!r} if name in sys.modules]

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = burnloc.cli.main(argv)
    return code, out.getvalue()

seen = {{"import": loaded()}}
seen["structure"] = run(["structure", "--group", {C2!r}, "--catalog", "hyperelliptic-Z2", "--json"])
seen["after_structure"] = loaded()
seen["class"] = run(["class", "--model", "quadric-bundle", "--json"])
seen["after_class"] = loaded()
print(json.dumps(seen))
"""


def _probe(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_imports_no_dataclasses_fractions_or_model_layer(capsys):
    seen = json.loads(_probe(PROBE))
    assert seen["import"] == []
    assert seen["structure"] == [0, '{\n  "free_rank": 1,\n  "torsion": []\n}\n']
    assert seen["after_structure"] == []
    assert "burnloc.models" in seen["after_class"]
    assert "argparse" not in seen["after_class"] and "gettext" not in seen["after_class"]
    # the model layer imported on first use gives the report of this process
    assert main(["class", "--model", "quadric-bundle", "--json"]) == 0
    assert seen["class"] == [0, capsys.readouterr().out]


def test_help_and_usage_errors_fall_back_to_argparse():
    out = _probe(
        "import contextlib, io, json\n"
        "import burnloc.cli\n"
        "seen = []\n"
        f"for argv in (['--help'], ['structure', '--group', {C2!r}]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            burnloc.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            seen.append([exc.code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(seen))\n"
    )
    (help_code, help_out, _), (code, _, err) = json.loads(out)
    assert help_code == 0 and help_out.startswith("usage: burnloc")
    assert code == 2 and "the following arguments are required: --catalog" in err


def test_model_names_resolve_on_first_use():
    out = _probe(
        "import sys, burnloc\n"
        "before = 'burnloc.models' in sys.modules\n"
        "from burnloc import verdict, ModelDescription\n"
        "try:\n"
        "    burnloc.no_such_name\n"
        "    missing = 'no error'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(before, verdict.__module__, ModelDescription.__module__, burnloc.models.__name__)\n"
        "print(missing)\n"
        "print(' '.join(burnloc.__all__))\n"
    )
    first, missing, names = out.splitlines()
    assert first == "False burnloc.models burnloc.models burnloc.models"
    assert missing == "module 'burnloc' has no attribute 'no_such_name'"
    exported = names.split()
    for name in ("models", "ModelDescription", "StratumDatum", "JacobianFactorDatum", "BlowupCenter",
                 "VerdictReport", "blowup", "class_of_action", "invariant_I", "invariant_counts",
                 "validate_model", "verdict", "verify_blowup_invariance", "structure", "Symbol"):
        assert name in exported
    assert exported == sorted(exported)
