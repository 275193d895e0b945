#!/usr/bin/env python3
"""Builds and runs the Engine benchmark (perfbench/engine_bench.cc).

Run from the root of a stateslice checkout:

    python3 perfbench/run.py --workload chain-det --seed 1 --seconds 30 --trace 0

The benchmark is configured with CMake from perfbench/CMakeLists.txt and
built in Release into $CARGO_TARGET_DIR (default: .bench_build) under the
checkout root; an up-to-date build costs about a second. Build
output goes to standard error, so the benchmark's JSON result stays the last
line of standard output. Traces of --trace 1 runs go to .bench_out/.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build(build_dir: Path) -> Path:
    binary = build_dir / "engine_bench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "engine_bench", "-j", jobs],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    if not binary.exists():
        sys.exit(f"run.py: {binary} missing after the build")
    return binary


def main() -> int:
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    return subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
