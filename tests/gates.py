"""The CI gates beside the tier-1 tests and `perfbench/tests`: one function per gate, each the body of the
workflow step that runs it, with a docstring saying what it guards.  Standard library only, from the repo
root: `python tests/gates.py all`, or name gates (`python tests/gates.py hash-seed order-64`).  A gate
prints a line per check and exits 1 at its first failure.  This process imports no burnloc: Python work
over the package runs in a fresh interpreter (`in_child`)."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
WORKLOADS = ("ladder-abelian", "ladder-nonabelian", "blowup-queries", "cli-fixtures")


def check(ok: bool, message: str):
    if not ok:
        sys.exit(message)


def burnloc(*argv: str, timeout: float | None = None, env: dict | None = None) -> subprocess.CompletedProcess:
    """A `python -m burnloc.cli` process over src/, stdout and stderr captured; past `timeout` seconds it is
    killed and the gate fails."""
    try:
        return subprocess.run([sys.executable, "-m", "burnloc.cli", *argv], cwd=ROOT, capture_output=True,
                              timeout=timeout, encoding="utf-8", errors="surrogateescape",
                              env={**os.environ, **(env or {}), "PYTHONPATH": SRC})
    except subprocess.TimeoutExpired:
        sys.exit(f"burnloc {' '.join(argv)[:160]}: ran past {timeout} s")


def in_child(function, *args: str, timeout: float | None = None, env: dict | None = None):
    """`function(*args)`, a function of this module, called in a fresh interpreter with src, tests and
    perfbench on its path (tests first: both have a `scenarios` module) and `env` added to its environment;
    the gate fails unless it exits 0 within `timeout` seconds, after which it is killed."""
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests", "perfbench"))
    call = "import sys, gates; getattr(gates, sys.argv[1])(*sys.argv[2:])"
    try:
        code = subprocess.run([sys.executable, "-c", call, function.__name__, *args], cwd=ROOT, timeout=timeout,
                              env={**os.environ, **(env or {}), "PYTHONPATH": path}).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"{function.__name__}: ran past {timeout} s")
    check(code == 0, f"{function.__name__}: exit {code}")


def catalog_file(group: str, path: str):
    """(G, tests/scenarios.generated_catalog(G)) for the group with JSON `group`; the catalog is also written
    to path as the JSON that `--catalog` reads."""
    from burnloc.catalog import catalog_to_json
    from burnloc.groups import build_group
    from scenarios import generated_catalog

    G = build_group(json.loads(group))
    catalog = generated_catalog(G)
    Path(path).write_text(json.dumps(catalog_to_json(catalog)))
    return G, catalog


def wrong_shape_catalog_file(group: str, path: str):
    """(In a child.)  tests/scenarios.wrong_shape_catalog of the group with JSON `group`, written to path."""
    from burnloc.groups import build_group
    from scenarios import wrong_shape_catalog

    Path(path).write_text(json.dumps(wrong_shape_catalog(build_group(json.loads(group)))))


def bench(workload: str, seed: int, trace: int) -> dict:
    """The report of a 1-s harness run, its last stdout line read as JSON; the gate fails unless it says that
    every answer matched the pins."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    last = (subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout.splitlines() or [""])[-1]
    print(f"{workload} (seed {seed}{', traced' if trace else ''}): {last}")
    report = json.loads(last) if last.startswith("{") else {}
    check(report.get("correct") is True, f"{workload} (seed {seed}): answers differ from the pins")
    return report


def cli_usage():
    """A well-formed argv is read off the command table without argparse; --help and usage errors fall back
    to the argparse parser built from that table, a path no benchmark workload takes: help must exit 0, and
    each usage error must exit 2 with argparse's own message on stderr.  A --group that cannot be read as
    JSON (a Latin-1 file, an array nested 100,000 deep, an integer of 5,000 digits; the last two inline too)
    must exit 2 with one "error:" message and no traceback."""
    for argv in (["--help"], ["structure", "--help"]):
        check(burnloc(*argv).returncode == 0, f"burnloc {' '.join(argv)}: expected exit 0")
    group, catalog = '{"kind":"cyclic","n":2}', "hyperelliptic-Z2"
    cases = [([], "the following arguments are required: command"),
             (["structure", "--group", group], "the following arguments are required: --catalog"),
             (["structure", "--group", group, "--catalog", catalog, "--filter", "bogus"], "invalid choice")]
    with tempfile.TemporaryDirectory() as tmp:
        files = {"latin1": b'{"kind":"cycl\xe9c","n":2}', "deep": b"[" * 100000 + b"]" * 100000 + b"\n",
                 "digits": b'{"kind": "cyclic", "n": ' + b"9" * 5000 + b"}\n"}
        for name, data in files.items():
            Path(tmp, f"{name}.json").write_bytes(data)
        malformed = [f"{tmp}/{name}.json" for name in files] + [
            '{"kind": ' + "[" * 50000 + "]" * 50000 + "}", '{"kind": "cyclic", "n": ' + "9" * 5000 + "}"]
        cases += [(["structure", "--group", arg, "--catalog", catalog], "error:") for arg in malformed]
        for argv, expected in cases:
            label = f"burnloc {' '.join(argv)[:80]}"
            done = burnloc(*argv)
            print(f"{label}: exit {done.returncode}, {(done.stderr.splitlines() or [''])[-1][:160]}")
            check(done.returncode == 2, f"{label}: expected exit 2")
            check(expected in done.stderr and "Traceback" not in done.stderr,
                  f"{label}: expected '{expected}' and no traceback on stderr")
            check(expected != "error:" or done.stderr.startswith("error:"), f"{label}: expected one 'error:' message")


def mutant_tallies():
    """(In a child.)  blowup-queries' set-up and one pass, in this process, at every seed whose mutant tally
    perfbench/pins.MUTANTS pins: every invariance query must hold and the tally must match its pin."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # the harness's `scenarios`, not the tests'
    import pins
    import workloads

    queries = workloads.BlowupQueries()
    for seed in sorted(pins.MUTANTS):
        queries.setup(seed)
        failed = [outcome.detail for outcome in queries.run_pass() if not outcome.ok] + queries.check_pass()
        check(not failed, f"blowup-queries (seed {seed}): {'; '.join(failed)}")
    print(f"blowup-queries: {len(pins.MUTANTS)} mutant tallies match their pins")


def pinned():
    """A short run of every workload; its last line reports whether each answer, fixture report and mutant
    tally matched perfbench/pins.py.  Seed 1 relabels every group table: the structures' kernel memos, which
    answer dual generation, and the quotients' resolved residual groups are keyed by coordinates and element
    labels, which one labelling alone would not test.  The mutant tallies of blowup-queries are pinned per
    seed for seeds 0-63, and one child checks them all, a set-up and a pass per seed under the harness's hash
    seed (about 7 s).  They do not guard the enumerators' yield order, which the queries are drawn in:
    reversing the order of `symbols._y_options` left every pin matched at seeds 0-9.  Tier-1
    `test_cold_pass.py::test_enumerators_yield_the_lattice_path_symbols_in_order` guards it (all 31 of its
    cases fail under that reversal)."""
    for workload, seed in [(w, s) for s in (0, 1) for w in WORKLOADS]:
        bench(workload, seed, 0)
    in_child(mutant_tallies, env={"PYTHONHASHSEED": "0"})


def traced():
    """The traced passes also check per-rung symbol and relation counts and the per-layer probes.  Each of a
    ladder's 5 rungs must enumerate its symbols once, and at most 5 % of canonicalize calls may repeat an
    input seen earlier in the pass.  blowup-queries, run through the probes over each model's cached check,
    may run at most 500 Subgroup checks (161 measured), and its membership tests must go through
    IntegerLattice.contains, which the probe counts.  On every workload at most one probe may find its target
    gone (the deleted module-level catalog:induced_surface_action), so a refactor that hides a name the probes
    wrap fails here instead of zeroing a metric."""
    bounds = [  # (workloads, metric, bound, what a breach means)
        (WORKLOADS, "trace.absent_probes", lambda v: v <= 1, "a module-level name the probes wrap is gone"),
        (WORKLOADS[2:3], "groups.subgroup_inits", lambda v: v <= 500, "Subgroup checks repeat checked element sets"),
        (WORKLOADS[2:3], "normalforms.contains_calls", lambda v: v > 0, "membership bypassed IntegerLattice.contains"),
        (WORKLOADS[:2], "symbols.enumerate_calls", lambda v: v == 5, "symbols enumerated more than once per rung"),
        (WORKLOADS[:2], "symbols.canonicalize_repeat_share", lambda v: v <= 0.05, "canonicalize repeats its inputs"),
    ]
    for workload in WORKLOADS:
        metrics = bench(workload, 0, 1)["metrics"]
        for workloads, name, holds, meaning in bounds:
            if workload in workloads:
                print(f"  {name}={metrics[name]['value']}")
                check(holds(metrics[name]["value"]), f"{workload}: {meaning}")


def hash_seed():
    """The benchmark harness pins PYTHONHASHSEED=0 for its children, so no pinned answer covers another seed:
    every model's verdict, every fixture catalog's relation dump over its group, the structure of a
    generated C4xC4 catalog, and `equal` and `phi` over README's class example (hyperelliptic-Z2 on C2, whose
    class terms take the route of every declared symbol) must print the same bytes (and exit codes) under
    hash seeds 0-3 (a few seconds).  So must `structure` over the C2xC4 catalog with an induce target of the
    wrong shape, which must exit 2: its message names the first refused relation term's source symbol."""
    group, fixtures = '{"kind":"abelian","factors":[4,4]}', Path(SRC, "burnloc", "fixtures")
    commands = [["verdict", "--model", f.stem, "--json"] for f in sorted(fixtures.glob("models/*.json"))]
    commands += [["relations", "--group", f'{{"kind":"cyclic","n":{3 if f.stem == "Z3-basic" else 2}}}',
                  "--catalog", f.stem, "--dump", "--json"] for f in sorted(fixtures.glob("catalogs/*.json"))]
    readme = Path(ROOT, "README.md").read_text(encoding="utf-8")
    example = json.dumps(json.loads(readme.split("**Class**", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]))
    hyper = ["--group", '{"kind":"cyclic","n":2}', "--catalog", "hyperelliptic-Z2", "--json"]
    commands += [["equal", *hyper, "--a", example, "--b", example], ["phi", *hyper, "--class", example]]
    with tempfile.TemporaryDirectory() as tmp:
        in_child(catalog_file, group, f"{tmp}/catalog.json")
        commands.append(["structure", "--group", group, "--catalog", f"{tmp}/catalog.json", "--json"])
        c2xc4 = '{"kind":"abelian","factors":[2,4]}'
        in_child(wrong_shape_catalog_file, c2xc4, f"{tmp}/wrong-shape.json")
        commands.append(["structure", "--group", c2xc4, "--catalog", f"{tmp}/wrong-shape.json", "--json"])
        reports = [[burnloc(*argv, env={"PYTHONHASHSEED": str(seed)}) for argv in commands] for seed in range(4)]
    check(all(report[-1].returncode == 2 for report in reports), "wrong-shape structure: exit code is not 2")
    for seed in (1, 2, 3):
        for argv, first, other in zip(commands, reports[0], reports[seed]):  # exit code, stdout and stderr
            check(vars(first) == vars(other), f"burnloc {' '.join(argv)}: report under PYTHONHASHSEED={seed} differs")
    print(f"{len(commands)} reports byte-identical under PYTHONHASHSEED 0-3")


def equal_sides(group: str, directory: str):
    """(In a child.)  catalog.json; a.json and b.json, the positive and negative sides of the first generated
    relation with terms of both signs; c.json, b plus one symbol in no generated relation."""
    from burnloc.relations import BurnsideContext
    from burnloc.symbols import carrier_quotient

    G, catalog = catalog_file(group, f"{directory}/catalog.json")
    context = BurnsideContext(G, catalog)
    relations = context.relations
    relation = next((r for r in relations if len({c > 0 for _, c in r.vector.terms()}) == 2), None)
    check(relation is not None, f"{group}: no generated relation has terms of both signs")
    covered = set().union(*(r.vector.support() for r in relations))
    lone = next((s for s in context.symbols if s not in covered), None)
    check(lone is not None, f"{group}: every symbol lies in some generated relation")

    def term(s, coeff):
        y_reps = [carrier_quotient(G, s.h, s.kind).reps[i] for i in s.y]
        return {"symbol": {"kind": s.kind, "h": list(s.h), "y_reps": y_reps, "action": s.action,
                           "weights": [list(w) for w in s.weights]}, "coeff": coeff}

    a = [term(s, c) for s, c in relation.vector.terms() if c > 0]
    b = [term(s, -c) for s, c in relation.vector.terms() if c < 0]
    for name, terms in (("a", a), ("b", b), ("c", b + [term(lone, 1)])):
        Path(directory, f"{name}.json").write_text(json.dumps({"terms": terms}))


def order_64():
    """`equal` builds the relation lattice over every symbol of the group: at order 64 the Hermite form of
    ~2000 relation rows over 2845 (C4^3) and 6857 (C2^6) symbols, seconds on sparse pivot rows and far slower
    and larger by dense elimination.  Each answer must come back within the timeout, true for two classes
    whose difference is a generated relation and false once b also holds one symbol in no generated relation,
    so membership is pinned both ways at the order bound.  `structure --json` on the same groups must give the
    README's answers, which guards the Smith route at the order bound, and free rank 1 and no torsion with
    `--filter max-stabilizer` (about a second each)."""
    pins = {"[4,4,4]": {"free_rank": 1185, "torsion": [2] * 28}, "[2,2,2,2,2,2]": {"free_rank": 4777, "torsion": []}}
    for factors, pin in pins.items():
        group = f'{{"kind":"abelian","factors":{factors}}}'
        with tempfile.TemporaryDirectory() as tmp:
            in_child(equal_sides, group, tmp)
            shared = ["--group", group, "--catalog", f"{tmp}/catalog.json", "--no-banner"]
            cases = [(f"equal on {factors}, a against {side}",
                      ["equal", *shared, "--a", f"{tmp}/a.json", "--b", f"{tmp}/{side}.json"], answer)
                     for side, answer in (("b", "true"), ("c", "false"))]
            cases += [(f"structure on {factors}", ["structure", *shared, "--json"], json.dumps(pin)),
                      (f"structure --filter max-stabilizer on {factors}",
                       ["structure", *shared, "--filter", "max-stabilizer", "--json"],
                       json.dumps({"free_rank": 1, "torsion": []}))]
            for label, argv, expected in cases:
                done = burnloc(*argv, timeout=120)
                check(done.returncode == 0, f"{label}: exit {done.returncode}")
                answer = done.stdout.rstrip() if argv[0] == "equal" else json.dumps(json.loads(done.stdout))
                print(f"{label}: {answer}")
                check(answer == expected, f"{label}: expected {expected}")


def peak_children(cases: str, ceiling: str, timeout: str):
    """(In a child, which imports no burnloc.)  Runs each `burnloc` argv of the JSON list `cases` of [argv,
    expected JSON report or null] and reads its exit code and peak RSS from os.wait4; each must exit 0 within
    `timeout` seconds (past it the child is killed), peak at most `ceiling` MB and report what is expected."""
    for argv, expected in json.loads(cases):
        label, t0 = f"burnloc {' '.join(argv)[:160]}", time.perf_counter()
        with tempfile.TemporaryFile("w+") as out:
            child = subprocess.Popen([sys.executable, "-m", "burnloc.cli", *argv], stdout=out,
                                     env={**os.environ, "PYTHONPATH": SRC})
            while not (done := os.wait4(child.pid, os.WNOHANG))[0]:
                if time.perf_counter() - t0 > float(timeout):
                    child.kill()
                    sys.exit(f"{label}: ran past {timeout} s")
                time.sleep(0.02)
            out.seek(0)
            report = out.read()
        code, peak = os.waitstatus_to_exitcode(done[1]), done[2].ru_maxrss / 1024  # kB on Linux
        print(f"{label}: exit {code}, {time.perf_counter() - t0:.2f} s, peak {peak:.1f} MB (ceiling {ceiling} MB)",
              flush=True)
        check(code == 0 and peak <= float(ceiling), f"{label}: failed or its peak exceeded {ceiling} MB")
        if expected is not None:
            print(f"  {json.dumps(json.loads(report))}")
            check(json.loads(report) == expected, f"{label}: expected {json.dumps(expected)}")


def peak_memory():
    """No command builds a dense |relations| x |symbols| matrix (the relation rows reach the normal forms as
    sparse dicts), and the cyclic garbage collector is off while a `burnloc` process runs its command
    (cli.run), so cyclic garbage made during a command is never freed before exit: each child's peak RSS,
    read from os.wait4, must stay under a ceiling for `structure`, `structure --filter max-stabilizer` and
    `equal` (a against b from `equal_sides`) at order 64.  C2^6 peaks at 23-31 MB, C4^3 at about 20 MB; with
    the dense matrix they peaked at 131.7 and 64.6 MB.  The children are spawned from a process that imports
    no burnloc, since a child's peak also counts the memory of the process it was started from."""
    for factors, ceiling in (("[2,2,2,2,2,2]", "64"), ("[4,4,4]", "40")):
        group = f'{{"kind":"abelian","factors":{factors}}}'
        with tempfile.TemporaryDirectory() as tmp:
            in_child(equal_sides, group, tmp)
            shared = ["--group", group, "--catalog", f"{tmp}/catalog.json", "--json"]
            cases = [[["structure", *shared], None], [["structure", "--filter", "max-stabilizer", *shared], None],
                     [["equal", *shared, "--a", f"{tmp}/a.json", "--b", f"{tmp}/b.json"], None]]
            in_child(peak_children, json.dumps(cases), ceiling, "120")


def lattice_against_oracle(group: str):
    """(In a child.)  The subgroup lattice of the group with JSON `group`, and of one relabelled copy, must
    equal the breadth-first walk of tests/oracles.bfs_subgroups tuple for tuple."""
    from burnloc.groups import build_group, subgroups_within
    from oracles import bfs_subgroups
    from scenarios import relabel

    G = build_group(json.loads(group))
    for name, H in ((group, G), (f"{group} relabelled", build_group({"kind": "table", "mul": relabel(G.mul, 128)}))):
        lattice = subgroups_within(H)
        print(f"lattice of {name}: {len(lattice)} subgroups")
        check(lattice == bfs_subgroups(H), f"{name}: the lattice differs from the breadth-first walk's")


def order_128():
    """Headroom above the default order bound: with BURNLOC_ORDER_BOUND=128, which any user may set,
    `structure --json` on C2^7 (45,468 symbols and 8256 relations over a generated catalog, itself built in a
    child under the same bound in about 5 s) must exit 0 within 60 s with its pinned answer and peak at most
    150 MB (about 1.5 s and 61 MB).  A dense |relations| x |symbols| matrix ran out of memory here (exit 1).
    So must `structure --filter max-stabilizer --json`, free rank 1 and no torsion (about 1.4 s and 61 MB): a
    filter that built a carrier quotient for every symbol before it read the symbol's H peaked at 213 MB.
    The lattice of C2^7 (29,212 subgroups) and of one relabelled copy must equal the breadth-first oracle's,
    checked in a child under the same bound (about 5 s)."""
    group, bound = '{"kind":"abelian","factors":[2,2,2,2,2,2,2]}', {"BURNLOC_ORDER_BOUND": "128"}
    in_child(lattice_against_oracle, group, env=bound)
    with tempfile.TemporaryDirectory() as tmp:
        in_child(catalog_file, group, f"{tmp}/catalog.json", env=bound)
        shared = ["structure", "--group", group, "--catalog", f"{tmp}/catalog.json", "--json"]
        cases = [[shared, {"free_rank": 37212, "torsion": []}],
                 [[*shared, "--filter", "max-stabilizer"], {"free_rank": 1, "torsion": []}]]
        in_child(peak_children, json.dumps(cases), "150", "60", env=bound)


def blowup_chain():
    """The only blow-ups at order 64: a seeded chain of 1000 blow-ups of all three cases on D32 and on one
    relabelled copy, each step's class equal to the first model's modulo the relation lattice.  Each case-3
    step must also change the class by exactly minus relation B2's vector of the dropped stratum's symbol,
    sym - Theta1 - Theta2 - partner, as `tests/oracles` builds it without the engine's blow-up formula, which
    B2 and case 3 share.  A blow-up's result starts from its source's checked symbols and checks only the
    data the move adds, so the datum checks (calls of `models._datum_symbol`) after each step must number
    the first model's data plus the data the steps so far added (2 + 2144 over the D32 chain, about 3 s);
    re-checking every earlier datum at every step makes them grow with the square of the chain's length
    (about 10^6 checks, 24-30 s on a 2-vCPU host) and fails the count at the first step.  The timeout (see
    GATES) stays as a bound on wall time."""
    import random

    import burnloc.models
    import generate
    from burnloc.groups import build_group
    from burnloc.models import blowup, class_of_action
    from burnloc.relations import BurnsideContext, classes_equal
    from burnloc.symbols import BurnsideClass
    from oracles import _reference_b2_terms, _reference_jac_partner
    from scenarios import ScenarioPool, generated_catalog

    checks = [0]
    datum_symbol = burnloc.models._datum_symbol

    def counted(*args):
        checks[0] += 1
        return datum_symbol(*args)

    burnloc.models._datum_symbol = counted

    def data(m):
        return len(m.strata) + len(m.jacobian_factors)

    table = generate.GROUPS["D32"]()
    for name, mul in (("D32", table), ("D32 relabelled", generate.relabel(table, random.Random("chain")))):
        G = build_group({"kind": "table", "name": name, "mul": mul})
        catalog = generated_catalog(G)
        context, b2 = BurnsideContext(G, catalog), {}  # reference B2 vector per curve symbol
        lattice = context.lattice
        pool = ScenarioPool(G, catalog)
        rng = random.Random(1000)
        checks[0] = 0
        m = pool.random_model(rng)
        base = class_of_action(m)
        first = expected = data(m)
        cases, b2_steps = set(), 0
        for step in range(1000):
            center = pool.random_center(rng, m)
            source, m = m, blowup(m, center)
            expected += data(m) - data(source) + (center.case == 3)  # a case-3 blow-up replaces the stratum it drops
            cases.add(center.case)
            check(classes_equal(base, class_of_action(m), lattice), f"{name}: blow-up {step} changed the class")
            if center.case == 3:
                sym = source._checked[0][center.stratum]  # the dropped stratum's checked symbol
                if sym not in b2:
                    theta1, theta2 = _reference_b2_terms(context, sym)
                    b2[sym] = BurnsideClass.of(sym) - theta1 - theta2 - BurnsideClass.of(
                        _reference_jac_partner(context, sym))
                check(class_of_action(m) - class_of_action(source) == -b2[sym],
                      f"{name}: case-3 blow-up {step} differs from the reference B2 terms")
                b2_steps += 1
            check(checks[0] == expected, f"{name}: {checks[0]} datum checks after blow-up {step}, expected {expected}")
        check(cases == {1, 2, 3}, f"{name}: the chain met only the blow-up cases {sorted(cases)}")
        print(f"{name}: 1000 blow-ups, class unchanged, {b2_steps} case-3 steps as the reference B2 terms; "
              f"{len(m.strata)} strata, {len(m.jacobian_factors)} jacobian factors; "
              f"{first} + {expected - first} datum checks")


GATES = {"cli-usage": cli_usage, "pinned": pinned, "traced": traced, "hash-seed": hash_seed, "order-64": order_64,
         "peak-memory": peak_memory, "order-128": order_128, "blowup-chain": lambda: in_child(blowup_chain, timeout=30)}

if __name__ == "__main__":
    names = list(GATES) if sys.argv[1:] == ["all"] else sys.argv[1:]
    check(names and set(names) <= set(GATES), f"usage: python tests/gates.py all | GATE...  (GATE: {', '.join(GATES)})")
    sys.stdout.reconfigure(line_buffering=True)  # children write to the same stdout
    for name in names:
        t0 = time.perf_counter()
        print(f"== {name}")
        GATES[name]()
        print(f"== {name}: passed in {time.perf_counter() - t0:.1f} s")
