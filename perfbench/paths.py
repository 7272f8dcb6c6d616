"""Where the benchmark reads and writes, and the environment of its processes.

Importing this module imports nothing from the package under test.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
PYCACHE = WORK / "pycache"


def child_env() -> dict[str, str]:
    """The whole environment of every process the benchmark starts."""
    return {
        "PYTHONPATH": "src",
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(PYCACHE),
        "LC_ALL": "C.UTF-8",
    }
