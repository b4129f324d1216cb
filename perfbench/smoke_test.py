#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a tiny-size pass of every workload.

Run from the repository root (builds .bench_build/ on first use):

    python3 perfbench/smoke_test.py

For each workload in BENCHMARK.json, untraced and traced, it checks that
the last stdout line is the result object, that every metric BENCHMARK.json
names is printed with its unit and nothing else, that nothing failed
(failed_frac 0) and that the traced run wrote its trace file.
"""
import json
import os
import subprocess
import sys


def check(workload: str, trace: int, expected: dict) -> list:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--size", "tiny"]
    process = subprocess.run(command, capture_output=True, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    if process.returncode != 0:
        return [f"{where}: exit {process.returncode}: {process.stderr[-2000:]}"]
    result = json.loads(process.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{where}: failed_frac is not 0: {result.get('failed')} "
                        f"of {result.get('attempted')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        if metric.get("unit") != unit or not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} printed as {metric}, want unit {unit}")
    if trace and not os.path.isfile(f".bench_build/trace-{workload}-seed1.json"):
        problems.append(f"{where}: no trace file")
    return problems


def main() -> int:
    with open("BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    groups = {0: benchmark["end_to_end"], 1: benchmark["per_layer"]}
    problems = []
    for workload in benchmark["workloads"]:
        for trace, metrics in groups.items():
            expected = {metric["name"]: metric["unit"] for metric in metrics}
            problems += check(workload["name"], trace, expected)
    for problem in problems:
        print("FAIL", problem)
    print("SMOKE FAIL" if problems else "SMOKE PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
