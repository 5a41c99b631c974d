#!/usr/bin/env python3
"""Steadiness report for the engine benchmark.

Runs each workload repeatedly, each run with its own seed, and prints every
end-to-end metric's median, quartiles and spread (interquartile distance as
a share of the median, from statistics.quantiles(values, n=4)). A metric
whose spread exceeds its bound in BENCHMARK.json is flagged; setup_s is
shown but not flagged, since its bound applies to medians only.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]
        [--workloads a,b] [--save set1.json]
    python3 perfbench/steadiness.py --compare set1.json set2.json

--compare checks that no metric's median in the second set is worse than
in the first by more than the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: "
                           f"{out.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(bench, runs, seed_base, workloads, seconds):
    metrics = bench["end_to_end"]
    collected = {}
    flagged = 0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for k in range(runs):
            got = run_once(workload, seed_base + k, seconds)
            for name in values:
                values[name].append(got[name])
            print(f"  {workload} seed {seed_base + k}: " +
                  " ".join(f"{n}={got[n]:.5g}" for n in values), flush=True)
        collected[workload] = values
        print(f"{workload}: {runs} runs, seeds {seed_base}..{seed_base + runs - 1}")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for m in metrics:
            q1, med, q3, s = spread(values[m["name"]])
            flag = ""
            if m["name"] != "setup_s" and s > m["bound"]:
                flag = "  OVER BOUND"
                flagged += 1
            elif m["name"] != "setup_s" and s > m["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"  {m['name']:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{s:>9.3f}{m['bound']:>7.2f} {m['unit']}{flag}")
    return collected, flagged


def compare(bench, first, second):
    bad = 0
    for workload in sorted(set(first) & set(second)):
        for m in bench["end_to_end"]:
            a = statistics.median(first[workload][m["name"]])
            b = statistics.median(second[workload][m["name"]])
            w = worse_by(a, b, m["better"])
            verdict = "WORSE THAN BOUND" if w > m["bound"] else "ok"
            bad += w > m["bound"]
            print(f"{workload:<18} {m['name']:<16} {a:>11.5g} -> {b:>11.5g} "
                  f"worse by {w:+.3f} (bound {m['bound']}) {verdict}")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--save", help="write the collected values here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    bench = load_benchmark()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 1 if compare(bench, *sets) else 0

    if args.runs < 2:
        parser.error("--runs must be at least 2")
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or bench["run_seconds"]
    collected, flagged = report(bench, args.runs, args.seed_base, workloads, seconds)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(collected, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
