"""The process entry `burnloc.cli.run` against the in-process entry `main`.

`run` turns the cyclic garbage collector off and freezes what is alive before
the interpreter exits; `main` must leave the collector as it found it, and a
`burnloc` process must report exactly what `main` reports.  Each child runs in
a fresh `python -S` interpreter with only the source tree on the path.
"""

import ast
import gc
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import burnloc.cli
from burnloc.cli import main

ROOT = Path(__file__).resolve().parents[1]
C2 = '{"kind":"cyclic","n":2}'
C4 = '{"kind":"cyclic","n":4}'

# one argv per way out of a process: exit 0, a validation error (2), a missing
# catalog rule (3), argparse's help (0) and an argparse usage error (2)
EXITS = {
    "ok": (0, ["structure", "--group", C2, "--catalog", "hyperelliptic-Z2", "--json"]),
    "invalid": (2, ["verdict", "--model", "no-such-model"]),
    "incomplete": (3, ["structure", "--group", C4, "--catalog", "hyperelliptic-Z2"]),
    "help": (0, ["structure", "--help"]),
    "usage": (2, ["structure", "--group", C2]),
}


def _child(*args: str) -> subprocess.CompletedProcess:
    # a fixed width, so argparse wraps its help as it does in this process
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _in_process(argv, capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("path", EXITS)
def test_main_leaves_the_collector_alone(path, capsys):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    expected, argv = EXITS[path]
    assert _in_process(argv, capsys)[0] == expected
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


@pytest.mark.parametrize("path", EXITS)
def test_process_reports_what_main_reports(path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected, argv = EXITS[path]
    done = _child("-m", "burnloc.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == _in_process(argv, capsys)
    assert done.returncode == expected


# runs the module as `python -m` does, with an atexit hook registered first
ATEXIT_PROBE = """
import atexit, gc, runpy, sys
assert gc.isenabled() and gc.get_freeze_count() == 0
atexit.register(lambda: print(f"atexit: enabled={gc.isenabled()} frozen={gc.get_freeze_count() > 0}",
                              file=sys.stderr))
runpy.run_module("burnloc.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("path", ["ok", "incomplete", "help", "usage"])
def test_process_exits_through_atexit_with_the_collector_off_and_frozen(path):
    expected, argv = EXITS[path]
    done = _child("-c", ATEXIT_PROBE, *argv)
    assert done.returncode == expected
    assert done.stderr.splitlines()[-1] == "atexit: enabled=False frozen=True"


def test_script_and_module_run_the_same_entry():
    section, target = None, None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        if line.startswith("["):
            section = line.strip()
        elif section == "[project.scripts]" and line.startswith("burnloc "):
            target = line.split("=", 1)[1].strip().strip('"')
    module, _, name = target.partition(":")
    assert getattr(import_module(module), name) is burnloc.cli.run
    # `python -m burnloc.cli` runs the module's own `__main__` block
    tree = ast.parse(Path(burnloc.cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block) == "if __name__ == '__main__':\n    raise SystemExit(run())"
