"""The burnloc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it builds nothing and imports the
package from `src`.  Workloads (see BENCHMARK.json for why each was chosen):

- ladder-abelian, ladder-nonabelian: one `burnloc structure --json` process
  per rung of a group ladder, with generated catalogs;
- blowup-queries: a seeded stream of blow-up invariance queries against
  relation lattices built once in set-up;
- cli-fixtures: every README command over the built-in fixtures, one process
  each, including two that must fail with exit codes 2 and 3.

The seed relabels every group's multiplication table and draws the queries.
Set-up runs three times and reports its median.  Passes of the same
operations then repeat until the next one would end after `--seconds` (at
least one pass runs).  Every time reported is at the reference pace of
`pace.py`: a fixed reference computation is timed around each set-up,
between operations at least every 0.1 s and every 0.1 s while a child process
runs, and each raw time is rescaled by the references over it, because a
shared host's CPU speed can drop by a third or more for longer than a run.  An operation's latency is
the median of its repetitions; the latency percentiles are taken over these,
and `wall_s` is their sum, the time of one pass.  `setup_s` is the median
set-up.  The whole benchmark, children included, is pinned to one CPU, so
that the reference runs where the operations run.  Every answer, exit code
and stdout digest is checked against `pins.py`.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` the passes run inside this process, once untraced and once with
spans recorded around every layer's public functions, and the last line
reports the per-layer metrics together with the tracing overhead.  The spans
are written to `perfbench/_work/trace.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import pace
from paths import ROOT, WORK, child_env

SETUP_REPEATS = 3


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb(in_process: bool) -> float:
    """Max resident set size of this process, or of the largest child it waited for."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_setups(workload, seed: int) -> tuple[list[float], list[float]]:
    """Raw seconds of each set-up, and the same at the reference pace."""
    raw = []
    pacer = pace.Pacer()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup(seed)
        raw.append(perf_counter() - t0)
        pacer.add(raw[-1])
        pacer.flush()
    return raw, pacer.paced


def run_passes(workload, seconds: float):
    """Repeat passes until the next one would end after `seconds`.

    Returns each pass's raw duration and outcomes, the pass-level problems,
    and the pacer holding every operation's time at the reference pace.
    """
    passes, outcomes, problems = [], [], []
    pacer = pace.Pacer()
    start = perf_counter()
    while True:
        t0 = perf_counter()
        run = []
        for op in workload.ops(pacer=pacer):
            run.append(op())
            pacer.add(run[-1].seconds)
        pacer.flush()
        passes.append(perf_counter() - t0)
        outcomes.append(run)
        problems += workload.check_pass()
        if perf_counter() - start + passes[-1] > seconds:
            return passes, outcomes, problems, pacer


def interpreter_costs(repeats: int = 5) -> tuple[float, float]:
    """Median ms of a bare interpreter start, and of importing the CLI on top of it."""
    from workloads import run_child, warm_bytecode

    warm_bytecode()

    def median_ms(code: str) -> float:
        times = []
        for _ in range(repeats):
            exit_code, _, err, seconds = run_child([sys.executable, "-c", code], timeout=60)
            if exit_code != 0:
                raise RuntimeError(f"interpreter probe failed: {err.strip()}")
            times.append(seconds)
        return statistics.median(times) * 1000.0

    interp = median_ms("pass")
    return interp, median_ms("import burnloc.cli") - interp


def report(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def measure(name: str, workload, args) -> int:
    raw_setups, setups = timed_setups(workload, args.seed)
    passes, by_pass, problems, pacer = run_passes(workload, args.seconds)
    # every pass repeats the same operations; each one's latency is the
    # median of its repetitions at the reference pace
    n = len(by_pass[0])
    repeats = zip(*(pacer.paced[i:i + n] for i in range(0, len(pacer.paced), n)))
    latencies = [statistics.median(times) * 1000.0 for times in repeats]
    outcomes = [o for run in by_pass for o in run]
    failures = [o for o in outcomes if not o.ok]
    ref_ms = [r * 1000.0 for r in pacer.references]
    print(f"workload {name}: seed {args.seed}, {len(passes)} pass(es) of {len(latencies)} operations")
    print(f"  pass seconds, references included: {', '.join(f'{p:.3f}' for p in passes)}")
    print(f"  raw setup seconds: {', '.join(f'{s:.3f}' for s in raw_setups)}")
    print(f"  reference ms: median {statistics.median(ref_ms):.2f}, range {min(ref_ms):.2f} to "
          f"{max(ref_ms):.2f} over {len(ref_ms)} (reported times assume "
          f"{pace.REFERENCE_SECONDS * 1000.0:.2f})")
    print(f"  op latency (median of {len(passes)}) over {len(latencies)} operations: "
          f"p50 {percentile(latencies, 0.5):.1f} ms, p90 {percentile(latencies, 0.9):.1f} ms")
    if len(latencies) <= 10:
        print(f"  op latencies ms: {', '.join(f'{x:.1f}' for x in latencies)}")
    print(f"  failed_share: {len(failures)}/{len(outcomes)}")
    for line in workload.notes():
        print(f"  {line}")
    for o in failures[:20]:
        print(f"  FAILED {o.detail}")
    for p in problems:
        print(f"  CHECK FAILED {p}")
    print(report(not failures and not problems, len(outcomes), len(failures), {
        "wall_s": (sum(latencies) / 1000.0, "s"),
        "op_p50_ms": (percentile(latencies, 0.5), "ms"),
        "op_p90_ms": (percentile(latencies, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workload.in_process), "MB"),
    }))
    return 0


def measure_traced(name: str, workload, args) -> int:
    import layers
    from spans import clear_caches
    from workloads import Ladder

    workload.setup(args.seed)
    interp_ms, import_ms = interpreter_costs()
    t0 = perf_counter()
    plain = workload.run_pass(inline=True)
    untraced = perf_counter() - t0
    problems = workload.check_pass()
    clear_caches()
    tracer = layers.new_tracer()
    try:
        workload.setup(args.seed)
        outcomes = []
        t0 = perf_counter()
        for i, op in enumerate(workload.ops(inline=True)):
            tracer.current_op = i
            outcomes.append(op())
        traced = perf_counter() - t0
    finally:
        tracer.uninstall()
    values = layers.layer_metrics(tracer)
    problems += workload.check_pass() + workload.check_trace(values)
    failures = [o for o in plain + outcomes if not o.ok]
    values["cli.interp_ms"] = interp_ms
    values["cli.import_ms"] = import_ms
    rungs = workload.rung_seconds if isinstance(workload, Ladder) else {}
    for rung in layers.LADDER_RUNGS:
        values[f"cli.rung_s.{rung}"] = rungs.get(rung, 0.0)
    values["trace.overhead_s"] = traced - untraced
    tracer.write(WORK / "trace.json")
    print(f"workload {name} (traced): seed {args.seed}, {len(outcomes)} operations, "
          f"{len(tracer.spans)} spans kept")
    print(f"  in-process pass: untraced {untraced:.3f} s, traced {traced:.3f} s")
    for line in workload.notes():
        print(f"  {line}")
    if tracer.absent:
        print(f"  absent probes: {', '.join(tracer.absent)}")
    for o in failures[:20]:
        print(f"  FAILED {o.detail}")
    for p in problems:
        print(f"  CHECK FAILED {p}")
    metrics = {m: (values[m], unit) for m, unit in layers.METRICS}
    for m, (value, unit) in metrics.items():
        print(f"  {m:40s} {value:14.4f} {unit}")
    print(report(not failures and not problems, len(plain) + len(outcomes), len(failures), metrics))
    return 0


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "burnloc" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a burnloc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = child_env()
    if os.environ != env:
        # run this process under the same explicit environment as its children
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  env)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"environment of every process: {json.dumps(env, sort_keys=True)}; "
          f"pinned to CPU {pace.pin_to_one_cpu()}")
    workload = workloads.WORKLOADS[args.workload]()
    return (measure_traced if args.trace else measure)(args.workload, workload, args)


if __name__ == "__main__":
    raise SystemExit(main())
