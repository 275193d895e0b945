#!/usr/bin/env python3
"""Paper fixed-point gate: the figure reproductions must not drift.

Runs the Figure 11/17/18/19 benches (fig11 is analytic; the others in their
--quick configurations) into a temporary directory and compares every row
exactly against bench/paper_golden.json:

  - fig11: saving_pct per (surface, s1, rho, s_sigma);
  - fig17/18/19: the logical totals total_comparisons, avg_state_tuples,
    max_state_tuples and results_delivered per (panel, rate, strategy or
    chain).

These are counts in the paper's own units (comparisons, state tuples,
results), so they are deterministic and machine-independent: any difference
means the plans, the operators or the measurement changed what the paper
figures report. Wall-clock fields are never compared.

Usage:
  bench/check_paper_golden.py --build-dir build            # gate
  bench/check_paper_golden.py --build-dir build --update   # rewrite golden

Registered as the `paper_golden` ctest (label `paper`) when the benches
and Python 3 are available.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

LOGICAL = ("total_comparisons", "avg_state_tuples", "max_state_tuples",
           "results_delivered")

# (binary, extra args, identity fields, compared fields)
BENCHES = (
    ("bench_fig11_savings", (), ("surface", "s1", "rho", "s_sigma"),
     ("saving_pct",)),
    ("bench_fig17_memory", ("--quick",), ("panel", "rate", "strategy"),
     LOGICAL),
    ("bench_fig18_service_rate", ("--quick",), ("panel", "rate", "strategy"),
     LOGICAL),
    ("bench_fig19_memopt_cpuopt", ("--quick",), ("panel", "rate", "chain"),
     LOGICAL),
)

DEFAULT_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "paper_golden.json")
MAX_REPORTED = 10


def run_bench(build_dir, binary, args, out_dir):
    """Runs one bench and returns its report rows."""
    json_path = os.path.join(out_dir, binary + ".json")
    cmd = [os.path.join(build_dir, binary), *args, "--json", json_path]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(json_path) as f:
        return json.load(f)["rows"]


def project(rows, identity, compared):
    """Keeps the identity and compared fields of each row, in order."""
    return [{k: row.get(k) for k in identity + compared} for row in rows]


def compare(binary, golden_rows, rows):
    """Returns one message per difference between golden and measured."""
    if len(golden_rows) != len(rows):
        return [f"{binary}: {len(rows)} rows, golden has {len(golden_rows)}"]
    problems = []
    for i, (want, got) in enumerate(zip(golden_rows, rows)):
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"{binary} row {i} {key}: got {got.get(key)!r}, "
                                f"golden {value!r}")
    return problems


def write_golden(path, measured):
    """One row per line, so a drift shows up as a readable diff."""
    with open(path, "w") as f:
        f.write("{\n")
        for b, (binary, rows) in enumerate(measured.items()):
            f.write(f'  "{binary}": [\n')
            for r, row in enumerate(rows):
                comma = "," if r + 1 < len(rows) else ""
                f.write(f"    {json.dumps(row)}{comma}\n")
            comma = "," if b + 1 < len(measured) else ""
            f.write(f"  ]{comma}\n")
        f.write("}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True,
                        help="directory holding the built bench binaries")
    parser.add_argument("--golden", default=DEFAULT_GOLDEN)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden from this build")
    args = parser.parse_args()

    measured = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for binary, extra, identity, compared in BENCHES:
            rows = run_bench(args.build_dir, binary, extra, out_dir)
            measured[binary] = project(rows, identity, compared)

    if args.update:
        write_golden(args.golden, measured)
        print(f"wrote {args.golden}")
        return 0

    with open(args.golden) as f:
        golden = json.load(f)
    problems = []
    for binary, _, _, _ in BENCHES:
        if binary not in golden:
            problems.append(f"{binary}: missing from {args.golden}")
            continue
        problems += compare(binary, golden[binary], measured[binary])
    for message in problems[:MAX_REPORTED]:
        print(message)
    if problems:
        print(f"paper_golden: {len(problems)} difference(s) from "
              f"{args.golden}")
        return 1
    rows = sum(len(r) for r in measured.values())
    print(f"paper_golden: {rows} rows match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
