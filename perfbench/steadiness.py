#!/usr/bin/env python3
"""Checks that the Engine benchmark repeats: two separate sets of runs.

Run from the root of a stateslice checkout:

    python3 perfbench/steadiness.py [--runs 10]

Reads BENCHMARK.json, then runs every workload --runs times (each run with
its own seed) as set 1, and again as set 2. For each workload and
end-to-end metric it prints each set's median, its quartiles, the spread
(third minus first quartile, as a share of the median) and how far set 2's
median is worse than set 1's. A metric is flagged when a spread (other than
setup_s's) or the worsening exceeds the metric's bound; spreads above a
third of the bound are marked as a warning. It also checks that every run
was correct and that the share of failed operations is identical in both
sets. Exits non-zero when anything is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steadiness: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric, base, other):
    """How much `other` is worse than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: [[], []] for w in workloads}
    started = time.time()
    for s in range(2):
        for w in workloads:
            for i in range(args.runs):
                seed = 1 + 1000 * s + i
                results[w][s].append(run_once(spec, w, seed, seconds))
                print(f"# set {s + 1} {w} seed {seed} done "
                      f"({time.time() - started:.0f} s)", file=sys.stderr)

    flagged = 0
    print(f"runs per set: {args.runs}, run_seconds: {seconds}")
    print(f"{'workload':14} {'metric':24} {'set1 median [q1, q3] spread':40} "
          f"{'set2 median [q1, q3] spread':40} {'worse':>7} {'bound':>6}  flag")
    for w in workloads:
        sets = results[w]
        for s in range(2):
            if not all(r["correct"] for r in sets[s]):
                print(f"{w}: set {s + 1} has an incorrect run  FLAG")
                flagged += 1
        shares = [sorted({(r["failed"], r["attempted"]) for r in runs})
                  for runs in sets]
        fail_share = [{f / a for f, a in share} for share in shares]
        if len(fail_share[0] | fail_share[1]) != 1:
            print(f"{w}: failed share differs between runs: {fail_share}  FLAG")
            flagged += 1
        else:
            print(f"{w}: failed share {next(iter(fail_share[0])):.6f} in every run")
        for m in metrics:
            name = m["name"]
            cells = []
            spreads = []
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                spreads.append(spread)
                medians.append(med)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {100 * spread:.1f}%")
            worse = worse_by(m, medians[0], medians[1])
            flag = ""
            if worse > m["bound"] or (name != "setup_s" and
                                      max(spreads) > m["bound"]):
                flag = "FLAG"
                flagged += 1
            elif name != "setup_s" and max(spreads) > m["bound"] / 3:
                flag = "warn"
            print(f"{w:14} {name:24} {cells[0]:40} {cells[1]:40} "
                  f"{100 * worse:6.1f}% {100 * m['bound']:5.0f}%  {flag}")
    print(f"flagged: {flagged}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
