#!/usr/bin/env python3
"""Perf gate: perfbench at the merge base against HEAD.

    python3 tools/perf_gate.py --base <merge-base checkout> --head <HEAD checkout> \\
        --out BENCH_fleet.json

Runs `python3 perfbench/run.py --trace 0` for every workload at every seed in
SEEDS, once in each checkout, alternating which side goes first from pair to
pair so host drift lands on both sides alike. Each run lasts `run_seconds`
from BENCHMARK.json. Then one `--trace 1` run per workload at HEAD records the
per-layer sheet.

The gate fails when any run is not `correct`, reports `failed > 0` or gives
no result, or when, on any workload, HEAD's median of any `end_to_end` metric
in BENCHMARK.json is worse than the merge base's median by more than that
metric's `bound`, a fraction of the base median, in the direction its
`better` names ("higher" or "lower"). Metrics, bounds and run length are
read from the merge-base checkout, so a change cannot loosen its own gate.

Writes the medians, interquartile ranges and raw runs of every end-to-end
metric per workload and side, the traced sheets and the verdict to the
output file (schema magus.bench.fleet.v6), pass or fail.
Exit code 0 = pass, 1 = fail. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SCHEMA = "magus.bench.fleet.v6"
WORKLOADS = ("fleet-service", "fleet-budget", "paper-fig4")
SEEDS = (101, 202, 303)
SHOWN_METRIC = "nodes_per_s"


def load_benchmark(checkout: str) -> tuple[list[dict], int]:
    """The end-to-end metrics ({name, better, bound}) and the run length from
    BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = [{"name": m["name"], "better": m["better"], "bound": float(m["bound"])}
               for m in spec["end_to_end"]]
    return metrics, int(spec["run_seconds"])


def parse_result(stdout: str) -> dict | None:
    """perfbench's result object: the last stdout line, or None if there is none."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_perfbench(checkout: str, workload: str, seed: int, seconds: int,
                  trace: bool) -> dict | None:
    """One perfbench run in `checkout`; its result object, or None."""
    env = dict(os.environ)
    # run.py resolves the build dir against its own checkout; an absolute
    # CARGO_TARGET_DIR would make both checkouts share one build tree.
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    return parse_result(proc.stdout) if proc.returncode == 0 else None


def run_error(result: dict | None) -> str | None:
    """Why a run does not count as correct, or None if it does."""
    if result is None:
        return "no result"
    if result.get("correct") is not True:
        return "correct: false"
    if result.get("failed", 0) > 0:
        return f"failed: {result['failed']}"
    return None


def metric(result: dict, name: str) -> float:
    return float(result["metrics"][name]["value"])


def correct_results(runs: list[dict], workload: str, side: str) -> list[dict]:
    return [run["result"] for run in runs
            if run["workload"] == workload and run["side"] == side
            and run_error(run["result"]) is None]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def worse_by(base: float, head: float, better: str) -> float:
    """How much worse `head` is than `base`, as a fraction of |base|; negative
    when it is better. Any worsening of a zero base counts as infinite."""
    delta = base - head if better == "higher" else head - base
    if base == 0.0:
        return 0.0 if delta <= 0.0 else float("inf")
    return delta / abs(base)


def decide(runs: list[dict], metrics: list[dict]) -> dict:
    """The verdict over `runs`: dicts of {workload, seed, side, result}, where
    side is "base", "head" or "trace" and result is perfbench's result object
    (None if the run gave none). Every run must be correct; on every workload
    each metric's HEAD median may be worse than the base's by at most its
    bound."""
    failures = []
    for run in runs:
        error = run_error(run["result"])
        if error:
            failures.append(f"{run['workload']} seed {run['seed']} {run['side']}: {error}")
    ratios = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        base_results = correct_results(runs, workload, "base")
        head_results = correct_results(runs, workload, "head")
        if not base_results or not head_results:
            continue  # already failed above
        ratios[workload] = {}
        for m in metrics:
            name = m["name"]
            base = statistics.median(metric(r, name) for r in base_results)
            head = statistics.median(metric(r, name) for r in head_results)
            ratios[workload][name] = head / base if base else None
            worse = worse_by(base, head, m["better"])
            if worse > m["bound"]:
                failures.append(f"{workload}: median {name} at HEAD is {head:.6g} against "
                                f"{base:.6g} at the merge base, {100.0 * worse:.1f}% worse; "
                                f"the bound is {100.0 * m['bound']:.0f}%")
    return {"pass": not failures, "metrics": metrics, "head_over_base": ratios,
            "failures": failures}


def summarize(runs: list[dict], workload: str, side: str, names: list[str]) -> dict:
    """Median, IQR and raw runs (in seed order) of each named metric."""
    results = correct_results(runs, workload, side)
    summary = {}
    for name in names:
        values = [metric(r, name) for r in results]
        summary[name] = {"median": statistics.median(values) if values else None,
                         "iqr": iqr(values), "runs": values}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="merge-base checkout")
    parser.add_argument("--head", required=True, help="HEAD checkout")
    parser.add_argument("--out", required=True, help="BENCH_fleet.json to write")
    args = parser.parse_args()
    checkouts = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    metrics, seconds = load_benchmark(checkouts["base"])
    names = [m["name"] for m in metrics]

    runs = []

    def record(workload: str, seed: int, side: str) -> dict | None:
        checkout = checkouts["head" if side == "trace" else side]
        result = run_perfbench(checkout, workload, seed, seconds, trace=side == "trace")
        runs.append({"workload": workload, "seed": seed, "side": side, "result": result})
        error = run_error(result)
        shown = ""
        if error is None and side != "trace":
            shown = f" {SHOWN_METRIC}={metric(result, SHOWN_METRIC):.1f}"
        print(f"[perf_gate] {workload} seed {seed} {side}:{shown} ({error or 'correct'})",
              file=sys.stderr, flush=True)
        return result

    pairs = [(workload, seed) for seed in SEEDS for workload in WORKLOADS]
    for k, (workload, seed) in enumerate(pairs):
        for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
            record(workload, seed, side)
    traces = {workload: record(workload, SEEDS[0], "trace") for workload in WORKLOADS}

    verdict = decide(runs, metrics)
    report = {
        "schema": SCHEMA,
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "workloads": {
            workload: {
                "base": summarize(runs, workload, "base", names),
                "head": summarize(runs, workload, "head", names),
                "trace": traces[workload]["metrics"] if traces[workload] else None,
            }
            for workload in WORKLOADS
        },
        "verdict": verdict,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")
    for failure in verdict["failures"]:
        print(f"[perf_gate] FAIL {failure}", file=sys.stderr)
    print(f"[perf_gate] {'pass' if verdict['pass'] else 'FAIL'}; wrote {args.out}",
          file=sys.stderr)
    return 0 if verdict["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
