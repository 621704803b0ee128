"""The multlat benchmark: four workloads, checked outputs, optional tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all       # every workload, traced and not
    python3 bench/run.py --smoke              # shortened run of all four
    python3 bench/run.py --self-test          # feed the checks wrong answers

Run it from the root of a checkout; multlat is imported from ``src/`` there.
Each run starts fresh single-threaded worker processes (child.py) one after
another: several that only set up, for the set-up time, then the one that
measures.  The worker times every operation and records its output; this
process then checks every output against independent arithmetic (see
workloads.py) and prints one JSON object as the last line of stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 7         # worker processes per run whose set-up is timed
RUN_LIMIT_S = 170.0       # a whole run, all its workers included

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, span name, what is summed per round: the spans'
# self time, their number, or a count read off their results)
PER_LAYER = {
    "lattice.build_s": ("s", "lattice.build", "self"),
    "lattice.build_calls": ("count", "lattice.build", "calls"),
    "lattice.elements_built": ("count", "lattice.build", "count"),
    "multiplication.attach_s": ("s", "multiplication.attach", "self"),
    "multiplication.attach_calls": ("count", "multiplication.attach", "calls"),
    "rings.zn_self_s": ("s", "rings.zn", "self"),
    "fileio.load_self_s": ("s", "fileio.load", "self"),
    "zdgraph.graph_s": ("s", "zdgraph.graph", "self"),
    "zdgraph.vertices": ("count", "zdgraph.graph", "count"),
    "zdgraph.edges": ("count", "zdgraph.graph", "count"),
    "solvers.clique_s": ("s", "solvers.clique", "self"),
    "solvers.clique_calls": ("count", "solvers.clique", "calls"),
    "solvers.chromatic_self_s": ("s", "solvers.chromatic", "self"),
    "solvers.chromatic_calls": ("count", "solvers.chromatic", "calls"),
    "solvers.clique_calls_per_chromatic": ("ratio", None, None),
    "primes.structure_s": ("s", "primes.structure", "self"),
    "primes.lemmas_s": ("s", "primes.lemmas", "self"),
    "primes.capped": ("count", "primes.structure", "count"),
    "report.analyze_self_s": ("s", "report.analyze", "self"),
    "report.to_json_s": ("s", spans.TO_JSON_SPAN, "self"),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def start_worker(inputs: str, out: str, rounds: int, trace: int,
                 deadline: float) -> tuple[float, dict]:
    """Run one worker; return its set-up time and its summary line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, inputs, out, str(rounds), str(trace)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        last = None
        for last in fh:
            pass
    summary = json.loads(last)
    return summary["ready"] - start, summary


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One run of one workload: set up, measure, check, compute metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.make(name, seed, workdir, smoke)
        inputs = os.path.join(workdir, "inputs.json")
        with open(inputs, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "items": wl.items}, fh)
        # Set-up-only workers run before and after the measuring one, so the
        # median of their set-up times spans the host's slow and fast spells.
        setups = []
        rounds = wl.rounds(seconds)
        out = os.path.join(workdir, "out.jsonl")
        for k in range(setup_samples):
            if k == setup_samples // 2:
                setup, summary = start_worker(inputs, out, rounds, trace, deadline)
            else:
                setup, _ = start_worker(inputs, os.path.join(workdir, f"setup{k}"),
                                        0, 0, deadline)
            setups.append(setup)
        result = check_outputs(wl, out, rounds)
        # Each item's latency is its best over the run's rounds: the host's
        # speed drifts by tens of percent over seconds, and the minimum of
        # repeated runs of one item is the figure that stays put.
        best = [min(times) for times in result.pop("latencies")]
        result["best_round_s"] = sum(best)
        if trace:
            os.makedirs(OUT, exist_ok=True)
            kept = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
            shutil.move(out + ".spans", kept)
            result.update(layer_metrics(kept, rounds))
        else:
            values = {"setup_s": statistics.median(setups),
                      "ops_per_s": len(best) / sum(best),
                      "op_p50_ms": 1000 * statistics.median(best),
                      "op_tail_ms": 1000 * percentile(best, wl.tail_q),
                      "peak_rss_mb": summary["peak_rss_kb"] / 1024}
            result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]}
                                 for k, v in values.items()}
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)


def check_outputs(wl: workloads.Workload, out: str, rounds: int) -> dict:
    """Check every recorded output; count the operations that failed."""
    attempted = failed = 0
    wrong = False
    latencies = [[] for _ in wl.items]
    failures: dict[str, list[str]] = {}
    with open(out, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "item" not in record:
                continue
            attempted += 1
            latencies[record["item"]].append(record["s"])
            problems = wl.check(record["item"], record["out"])
            if problems:
                failed += 1
                failures.setdefault(wl.labels[record["item"]], problems)
                if any(not p.startswith(workloads.INCOMPLETE) for p in problems):
                    wrong = True
    if attempted != rounds * len(wl.items) or attempted == 0:
        raise BenchError(f"{attempted} operations recorded for "
                         f"{rounds} round(s) of {len(wl.items)}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "failures": failures, "latencies": latencies}


def layer_metrics(path: str, rounds: int) -> dict:
    """Per-layer metrics per round, and the checks on the span tree."""
    tree = spans.read_spans(path)
    own = spans.self_times(tree)
    problems = spans.check_nesting(tree)
    total = defaultdict(float)
    calls = Counter()
    counts = Counter()
    op_total = defaultdict(float)   # op id -> summed self time of its spans
    op_time = unattributed = 0.0   # summed over all operations
    for k, (name, start, end, _, op, span_counts) in enumerate(tree):
        total[name] += own[k]
        calls[name] += 1
        op_total[op] += own[k]
        counts.update(span_counts or {})
        if name == spans.OP_SPAN:
            op_time += end - start
            unattributed += own[k]
    for name, start, end, _, op, _ in tree:
        if name == spans.OP_SPAN and abs(op_total[op] - (end - start)) > 1e-6:
            problems.append(f"self times of operation {op} do not add up to it")
    values = {}
    for metric, (_, span, what) in PER_LAYER.items():
        if what == "self":
            values[metric] = total[span] / rounds
        elif what == "calls":
            values[metric] = calls[span] // rounds
        elif what == "count":
            values[metric] = counts[metric] // rounds
    chromatic = calls["solvers.chromatic"]
    values["solvers.clique_calls_per_chromatic"] = (
        calls["solvers.clique"] / chromatic if chromatic else 0.0)
    for problem in problems[:5]:
        print(f"trace: {problem}", file=sys.stderr)
    return {"correct_trace": not problems,
            "metrics": {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                        for k in PER_LAYER},
            "unattributed_share": unattributed / op_time if op_time else 0.0}


def result_line(result: dict) -> str:
    correct = result["correct"] and result.get("correct_trace", True)
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def describe(name: str, result: dict) -> None:
    """Human-readable lines on stderr."""
    print(f"{name}: {result['attempted']} attempted, {result['failed']} failed",
          file=sys.stderr)
    for label, problems in result["failures"].items():
        print(f"  failed {label}: {'; '.join(problems)}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"  {metric:38s} {entry['value']:14.6g} {entry['unit']}",
              file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, with the tracing overhead."""
    for name in workloads.WORKLOADS:
        plain = run_workload(name, seed, seconds, 0)
        describe(name, plain)
        print(result_line(plain))
        traced = run_workload(name, seed, seconds, 1)
        describe(f"{name} (traced)", traced)
        overhead = traced["best_round_s"] - plain["best_round_s"]
        print(f"  tracing overhead {overhead:+.4f} s per round "
              f"({overhead / plain['best_round_s']:+.1%}); "
              f"{traced['unattributed_share']:.1%} of traced time outside "
              "any layer span", file=sys.stderr)
        print(result_line(traced))
    return 0


def smoke(seed: int) -> int:
    """A shortened run of all four workloads, in seconds.

    Asserts that every end-to-end metric named in BENCHMARK.json is printed
    and that no operation fails, except those whose only fault is a null
    prime count (the down-set cap) on large-analyze.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    bad = []
    for name in workloads.WORKLOADS:
        result = run_workload(name, seed, 0.1, 0, smoke=True, setup_samples=2)
        describe(name, result)
        missing = set(names) - set(result["metrics"])
        if missing:
            bad.append(f"{name} lacks {sorted(missing)}")
        for label, problems in result["failures"].items():
            capped = name == "large-analyze" and all(
                p.startswith(workloads.INCOMPLETE) and "count is null" in p
                for p in problems)
            if not capped:
                bad.append(f"{name} {label}: {problems}")
    for line in bad:
        print(f"smoke: {line}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if bad else "pass"}))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, SRC)   # for the brute-force oracles and the self-test
    try:
        if not os.path.isfile(os.path.join(SRC, "multlat", "__init__.py")):
            raise BenchError(f"no multlat source tree under {SRC}")
        if args.self_test:
            import selftest
            return selftest.main()
        if args.smoke:
            return smoke(args.seed)
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        describe(args.workload, result)
        print(result_line(result))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
