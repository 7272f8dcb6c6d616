import re
from pathlib import Path

import gates

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_the_workflow_runs_every_gate_and_no_inline_python():
    # every gate runs in CI, CI runs no name the runner lacks, and no step body
    # hides Python that `python tests/gates.py` would not run
    workflow = WORKFLOW.read_text()
    run = re.findall(r"python3? tests/gates\.py ([\w -]+)", workflow)
    assert run and sorted(name for names in run for name in names.split()) == sorted(gates.GATES)
    assert not re.search(r"python3?\s+-c\b", workflow)
    assert "generated_catalog" not in workflow
