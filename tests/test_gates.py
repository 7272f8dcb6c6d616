import re
from pathlib import Path

import gates

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
NEWEST_MINOR = 13  # the newest Python 3 release the project runs on


def test_the_workflow_runs_every_gate_and_no_inline_python():
    # every gate runs in CI, CI runs no name the runner lacks, and no step body
    # hides Python that `python tests/gates.py` would not run
    workflow = WORKFLOW.read_text()
    run = re.findall(r"python3? tests/gates\.py ([\w -]+)", workflow)
    assert run and sorted(name for names in run for name in names.split()) == sorted(gates.GATES)
    assert not re.search(r"python3?\s+-c\b", workflow)
    assert "generated_catalog" not in workflow


def test_the_matrix_runs_every_python_the_package_accepts():
    # every minor version from pyproject's requires-python floor up to the
    # newest one the project runs on, so each pins the same report digests
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    matrix = re.search(r"python-version: \[([^\]]*)\]", WORKFLOW.read_text())
    assert floor and matrix
    wanted = [f"3.{minor}" for minor in range(int(floor.group(1)), NEWEST_MINOR + 1)]
    assert re.findall(r'"(3\.\d+)"', matrix.group(1)) == wanted
