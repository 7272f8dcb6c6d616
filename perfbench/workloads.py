"""The four workloads.  Each has a set-up and a pass of operations, each of
which checks its own answers; CLI operations run in a child process, or inside
this process for the traced run.

Every workload is closed-loop with a single caller: the next operation starts
only after the previous one has finished.
"""

from __future__ import annotations

import compileall
import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import generate
import pins
import scenarios
from paths import ROOT, WORK, child_env
from burnloc import build_group, catalog_from_json, ensure_valid_catalog, relation_lattice
from spans import clear_caches


@dataclass(frozen=True)
class Outcome:
    seconds: float
    ok: bool
    detail: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_child(argv, timeout: float, pacer=None):
    """(exit code or None on timeout, stdout, stderr, seconds) of one child process.

    The wait blocks instead of polling, so the time is not rounded up to a
    polling interval.  With a `pacer`, it wakes every `pacer.INTERVAL` seconds
    to sample the reference while the child runs; the time those samples take
    from the child is not counted as the child's.
    """
    t0 = perf_counter()
    deadline = t0 + timeout
    sampled = 0.0
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        while True:
            left = max(deadline - perf_counter(), 0.0)
            try:
                stdout, stderr = proc.communicate(
                    timeout=min(left, pacer.INTERVAL) if pacer else left
                )
                break
            except subprocess.TimeoutExpired:
                if pacer is None or perf_counter() >= deadline:
                    proc.kill()
                    stdout, _ = proc.communicate()
                    return None, stdout, "timeout", perf_counter() - t0 - sampled
                sampled += pacer.sample()
    return proc.returncode, stdout, stderr, perf_counter() - t0 - sampled


def run_cli(argv, timeout: float, pacer=None):
    return run_child([sys.executable, "-m", "burnloc.cli", *argv], timeout, pacer)


def run_cli_inline(argv):
    """The same as run_cli, but inside this process (used by the traced run)."""
    import burnloc.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = burnloc.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue(), perf_counter() - t0


def fresh_workdir() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "inputs").mkdir(parents=True)


def warm_bytecode() -> None:
    """Compile the package into the benchmark's bytecode cache, then import it
    once in a child so the standard-library modules it needs are cached too."""
    if not compileall.compile_dir(str(ROOT / "src" / "burnloc"), quiet=1, force=True):
        raise RuntimeError("compiling the package failed")
    code, _, err, _ = run_cli(["invariant", "--counts", "0,0,0", "--json"], timeout=60)
    if code != 0:
        raise RuntimeError(f"warm-up process failed: {err.strip()}")


def write_json(name: str, data) -> str:
    path = WORK / "inputs" / name
    path.write_text(json.dumps(data))
    return str(path)


def load_catalog(data: dict):
    return ensure_valid_catalog(catalog_from_json(data))


class Workload:
    in_process = False  # operations run in this process rather than in children

    def ops(self, inline: bool = False, pacer=None) -> list:
        """One pass as zero-argument operations, each returning its Outcome.

        `inline` runs CLI commands inside this process instead of a child;
        `pacer`, if given, samples the reference while a child runs.
        """
        raise NotImplementedError

    def run_pass(self, inline: bool = False) -> list[Outcome]:
        return [op() for op in self.ops(inline)]

    def check_pass(self) -> list[str]:
        """Checks over a whole pass, beyond each operation's own; [] when all hold."""
        return []

    def check_trace(self, layer_values: dict) -> list[str]:
        """Checks on the counts a traced pass recorded; [] when all hold."""
        return []

    def notes(self) -> list[str]:
        """Lines worth reporting about the last pass."""
        return []


class Ladder(Workload):
    """One fresh `burnloc structure --json` process per rung of a group ladder.

    Each rung is one operation; a pass runs the rungs one after the other.
    """

    process_timeout = 120.0

    def __init__(self, rungs):
        self.rungs = tuple(rungs)
        self.argv: dict[str, list[str]] = {}
        self.rung_seconds: dict[str, float] = {}

    def setup(self, seed: int) -> None:
        fresh_workdir()
        for rung in self.rungs:
            spec = generate.group_spec(rung, seed)
            catalog = generate.catalog_json(spec["mul"], name=f"generated-{rung}")
            build_group(spec)  # the package's own validation of both inputs
            load_catalog(catalog)
            self.argv[rung] = [
                "structure", "--group", write_json(f"{rung}.group.json", spec),
                "--catalog", write_json(f"{rung}.catalog.json", catalog), "--json",
            ]
        warm_bytecode()

    def _check(self, rung: str, code, stdout: str) -> str:
        """The reason the rung's report is wrong, or "" when it matches the pins."""
        want = pins.RUNGS[rung]
        if code != 0:
            return f"{rung}: exit {code}"
        try:
            got = json.loads(stdout)
        except ValueError:
            return f"{rung}: report is not JSON"
        if (got["free_rank"], tuple(got["torsion"])) != (want.free_rank, want.torsion):
            return f"{rung}: structure {got} != pinned"
        if digest(stdout) != want.stdout:
            return f"{rung}: stdout hash {digest(stdout)} != pinned"
        return ""

    def _rung(self, rung: str, inline: bool, pacer) -> Outcome:
        argv = self.argv[rung]
        code, stdout, _, seconds = (
            run_cli_inline(argv) if inline else run_cli(argv, self.process_timeout, pacer)
        )
        self.rung_seconds[rung] = seconds
        detail = self._check(rung, code, stdout)
        return Outcome(seconds, not detail, detail)

    def ops(self, inline: bool = False, pacer=None) -> list:
        return [partial(self._rung, rung, inline, pacer) for rung in self.rungs]

    def notes(self) -> list[str]:
        return ["rung seconds: " + ", ".join(f"{r} {s:.3f}" for r, s in self.rung_seconds.items())]

    def check_trace(self, layer_values: dict) -> list[str]:
        symbols = sum(layer_values[f"symbols.count.{k}"] for k in ("curve", "surface", "jac"))
        relations = sum(layer_values[f"relations.count.B{i}"] for i in range(1, 5))
        want = (sum(pins.RUNGS[r].symbols for r in self.rungs),
                sum(pins.RUNGS[r].relations for r in self.rungs))
        if (symbols, relations) != want:
            return [f"(symbols, relations) over the ladder {(symbols, relations)} != pinned {want}"]
        return []


QUERY_GROUPS = ("C4xC4", "D4xC2")
# four full cycles of the (group, query shape) mix per pass: fewer draw the
# latency tail from too few queries, so that it moves with the seed
QUERY_COUNT = 4 * len(QUERY_GROUPS) * len(scenarios.SHAPES)


class BlowupQueries(Workload):
    """Warm library use: relation lattices built once, then a seeded query stream."""

    in_process = True

    def __init__(self):
        self.lattices = {}
        self.queries = []
        self.seed = None
        self.mutants = (0, 0)

    def setup(self, seed: int) -> None:
        clear_caches()
        pools = {}
        for name in QUERY_GROUPS:
            spec = generate.group_spec(name, seed)
            catalog = load_catalog(generate.catalog_json(spec["mul"], name=f"generated-{name}"))
            G = build_group(spec)
            self.lattices[name] = relation_lattice(G, catalog)
            pools[name] = scenarios.QueryPool(G, catalog)
        self.queries = scenarios.make_queries(pools, QUERY_COUNT, seed)
        self.seed = seed

    def _op(self, i: int) -> Outcome:
        q = self.queries[i]
        t0 = perf_counter()
        holds, tried, detected = scenarios.run_query(q, self.lattices[q.group])
        seconds = perf_counter() - t0
        self.mutants = (self.mutants[0] + tried, self.mutants[1] + detected)
        return Outcome(seconds, holds, "" if holds else f"query {i}: invariance failed")

    def ops(self, inline: bool = False, pacer=None) -> list:
        self.mutants = (0, 0)
        return [partial(self._op, i) for i in range(len(self.queries))]

    def notes(self) -> list[str]:
        pinned = "pinned" if self.seed in pins.MUTANTS else "no pin for this seed"
        return [f"mutants tried {self.mutants[0]}, detected {self.mutants[1]} ({pinned})"]

    def check_pass(self) -> list[str]:
        """The mutant tally must match the pin for this seed, where one exists."""
        want = pins.MUTANTS.get(self.seed)
        if want is None:
            return []
        if tuple(want) != self.mutants:
            return [f"mutants (tried, detected) {self.mutants} != pinned {tuple(want)}"]
        return []


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple[str, ...]
    exit: int = 0
    stderr: str = ""  # required substring of stderr


Z2 = '{"kind":"cyclic","n":2}'
Z3 = '{"kind":"cyclic","n":3}'
CATALOG_GROUPS = {
    "hyperelliptic-Z2": Z2, "nonhyperelliptic-Z2-exotic": Z2, "elliptic-Z2": Z2, "Z3-basic": Z3,
}
MODELS = (
    "conic-bundle-exotic", "dp6-fibration", "elliptic-empty", "elliptic-fixed-curve",
    "quadric-bundle", "sxp1-involution", "three-nodal-cubic",
)
CURVE_S1 = {"kind": "curve", "h": [0, 1], "action": "triv-C", "weights": [[1], [1]]}
CLASS_FILES = {
    "a.json": {"terms": [{"coeff": 1, "symbol": CURVE_S1}]},
    "b.json": {"terms": [{"coeff": -1, "symbol": {"kind": "jac", "h": [0, 1], "action": "triv-J"}}]},
    "c.json": {"terms": [{"coeff": 1, "symbol": {"kind": "surface", "h": [0, 1], "action": "triv-CxP1",
                                                 "weights": [[1]]}}]},
    "cls.json": {"terms": [{"coeff": 1, "symbol": CURVE_S1},
                           {"coeff": 5, "symbol": {"kind": "jac", "h": [0], "action": "triv-J"}}]},
}
INCOMPLETE_GROUP = "C4"


def fixture_commands(inputs: Path) -> list[Command]:
    """Every README command over the built-in fixtures, the expected failures included."""
    cmds = []
    for cat, group in CATALOG_GROUPS.items():
        cmds.append(Command(f"structure:{cat}", ("structure", "--group", group, "--catalog", cat)))
        # the elliptic catalog has a B4 relation mixing stabilizers, so its
        # filter is refused
        cmds.append(Command(f"structure-max:{cat}",
                            ("structure", "--group", group, "--catalog", cat, "--filter", "max-stabilizer"),
                            *((2, "filter closure violation") if cat == "elliptic-Z2" else ())))
        cmds.append(Command(f"relations-dump:{cat}",
                            ("relations", "--group", group, "--catalog", cat, "--dump")))
    cmds.append(Command("relations:hyperelliptic-Z2",
                        ("relations", "--group", Z2, "--catalog", "hyperelliptic-Z2")))
    cmds += [Command(f"class:{m}", ("class", "--model", m)) for m in MODELS]
    f = {name: str(inputs / name) for name in CLASS_FILES}
    hyper = ("--group", Z2, "--catalog", "hyperelliptic-Z2")
    cmds.append(Command("equal:b1", ("equal", *hyper, "--a", f["a.json"], "--b", f["b.json"])))
    cmds.append(Command("equal:distinct", ("equal", *hyper, "--a", f["a.json"], "--b", f["c.json"])))
    cmds.append(Command("phi", ("phi", *hyper, "--class", f["cls.json"])))
    cmds.append(Command("verify-blowup:1", ("verify-blowup", "--model", "elliptic-fixed-curve",
                                            "--center", "elliptic-bullet1")))
    cmds += [
        Command(f"verify-blowup:{i}", ("verify-blowup", "--model", "elliptic-empty",
                                       "--center", f"elliptic-bullet{i}"))
        for i in range(2, 6)
    ]
    for m in ("quadric-bundle", "sxp1-involution", "three-nodal-cubic", "conic-bundle-exotic",
              "dp6-fibration"):
        cmds.append(Command(f"verdict:{m}", ("verdict", "--model", m)))
    cmds.append(Command("verdict:elliptic-fixed-curve", ("verdict", "--model", "elliptic-fixed-curve"),
                        exit=2, stderr="genus"))
    cmds.append(Command("invariant:counts", ("invariant", "--counts", "0,1,0")))
    cmds.append(Command("invariant:model", ("invariant", "--model", "quadric-bundle")))
    cmds.append(Command("structure:incomplete", (
        "structure", "--group", str(inputs / "incomplete.group.json"),
        "--catalog", str(inputs / "incomplete.catalog.json"),
    ), exit=3, stderr="missing InduceRule"))
    return [Command(c.id, (*c.argv, "--json"), c.exit, c.stderr) for c in cmds]


class CliFixtures(Workload):
    """One `python -m burnloc.cli ... --json` process per README command."""

    process_timeout = 30.0

    def __init__(self):
        self.commands: list[Command] = []

    def setup(self, seed: int) -> None:
        fresh_workdir()
        for name, data in CLASS_FILES.items():
            write_json(name, data)
        spec = generate.group_spec(INCOMPLETE_GROUP, seed)
        write_json("incomplete.group.json", spec)
        write_json("incomplete.catalog.json", generate.catalog_json(spec["mul"], drop_rule=0))
        self.commands = fixture_commands(WORK / "inputs")
        warm_bytecode()

    def _check(self, cmd: Command, code, stdout: str, stderr: str, seconds: float) -> Outcome:
        if code != cmd.exit:
            return Outcome(seconds, False, f"{cmd.id}: exit {code} != {cmd.exit}: {stderr.strip()[:200]}")
        if digest(stdout) != pins.COMMANDS.get(cmd.id):
            return Outcome(seconds, False, f"{cmd.id}: stdout hash {digest(stdout)} != pinned")
        if cmd.stderr not in stderr:
            return Outcome(seconds, False, f"{cmd.id}: stderr lacks {cmd.stderr!r}")
        return Outcome(seconds, True)

    def _op(self, cmd: Command, inline: bool, pacer) -> Outcome:
        result = (
            run_cli_inline(cmd.argv) if inline else run_cli(cmd.argv, self.process_timeout, pacer)
        )
        return self._check(cmd, *result)

    def ops(self, inline: bool = False, pacer=None) -> list:
        return [partial(self._op, cmd, inline, pacer) for cmd in self.commands]


# rungs of about a second or less, so that every rung repeats several times
# in a run; the longer S4xC2, D16, D4xC4, C2xC2xC8 and D32 rungs are left out
LADDERS = {
    "ladder-abelian": ("C10", "C12", "C2xC6", "C4xC4", "C2xC2xC4"),
    "ladder-nonabelian": ("D10", "D4xC2", "S3xS3", "D3xC4", "D6xC2"),
}

WORKLOADS = {
    **{name: partial(Ladder, rungs) for name, rungs in LADDERS.items()},
    "blowup-queries": BlowupQueries,
    "cli-fixtures": CliFixtures,
}
