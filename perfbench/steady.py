#!/usr/bin/env python3
"""Steadiness command: repeat each workload and report the spread of every metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --seconds 20
    python3 perfbench/steady.py --workloads service-mixed --runs 5 --sets 2

Each run is a fresh untraced ``perfbench/run.py`` process with its own seed
(seeds 1, 2, ..., ``runs``), one after another.  For every
end-to-end metric the command prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
in ``BENCHMARK.json``.  A spread under a third of its bound is marked
``steady``.  With ``--sets 2`` the whole series runs twice and the command
also prints how far the second set's median moved from the first's.
``--out`` saves every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    environment = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    completed = subprocess.run(argv, cwd=ROOT, env=environment, capture_output=True,
                               text=True, timeout=900, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    everything: dict[str, list[list[dict]]] = {}
    for workload in args.workloads:
        sets = []
        for number in range(args.sets):
            results = []
            for seed in range(1, args.runs + 1):
                result = run_once(config["command"], workload, seed, args.seconds)
                results.append(result)
                print(f"# {workload} set {number + 1} seed {seed}: attempted "
                      f"{result['attempted']} failed {result['failed']}", file=sys.stderr)
            sets.append(results)
        everything[workload] = sets
        report(workload, sets, bounds)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(everything, indent=1))
    return 0


def report(workload: str, sets: list[list[dict]], bounds: dict[str, float]) -> None:
    print(f"\n{workload}: {len(sets[0])} runs per set, {len(sets)} set(s)")
    print(f"  {'metric':<22} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for name in sets[0][0]["metrics"]:
        unit = sets[0][0]["metrics"][name]["unit"]
        medians = []
        for results in sets:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            medians.append(median)
            bound = bounds[name]
            if share < bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
            print(f"  {name + ' (' + unit + ')':<22} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{share:>8.3f} {bound:>6}  {verdict}")
        if len(medians) > 1:
            drift = medians[-1] / medians[0] - 1.0
            print(f"  {'':<22} second set median moved {drift:+.3f}")
    for number, results in enumerate(sets, 1):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  set {number}: failed {failed} of {attempted} operations "
              f"({failed / attempted:.6f})")


if __name__ == "__main__":
    sys.exit(main())
