#!/usr/bin/env bash
# Runs every bench and collects one BENCH_<name>.json per bench — the
# perf-trajectory snapshot that scaling/optimization PRs are measured
# against.
#
# Usage:
#   bench/run_all.sh [--full] [--build-dir DIR] [--out DIR]
#
#   --full       full-length paper runs (default: --quick runs)
#   --build-dir  directory with the built bench binaries
#                (default: first of build, build-release that exists)
#   --out        where to write BENCH_*.json (default: current directory)
#
# Build first:  cmake -B build -S . && cmake --build build -j
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir=""
out_dir="$PWD"
quick=1

while [[ $# -gt 0 ]]; do
  case "$1" in
    --full) quick=0; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out_dir="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2
       echo "usage: bench/run_all.sh [--full] [--build-dir DIR] [--out DIR]" >&2
       exit 2 ;;
  esac
done

if [[ -z "$build_dir" ]]; then
  for candidate in "$repo_root/build" "$repo_root/build-release"; do
    if [[ -d "$candidate" ]]; then build_dir="$candidate"; break; fi
  done
fi
if [[ -z "$build_dir" || ! -d "$build_dir" ]]; then
  echo "error: no build directory found; run 'cmake -B build -S . && cmake --build build -j' first" >&2
  exit 1
fi

mkdir -p "$out_dir"

quick_flag=""
if [[ $quick -eq 1 ]]; then quick_flag="--quick"; fi

# Benches taking the shared [--quick] [--json <path>] flags.
figure_benches=(
  bench_fig11_savings
  bench_fig17_memory
  bench_fig18_service_rate
  bench_fig19_memopt_cpuopt
  bench_batch_throughput
  bench_chain_scaling
  bench_checkpoint
  bench_cost_model_validation
  bench_engine_churn
  bench_lineage_ablation
  bench_multiway_scaling
  bench_probe_index
  bench_shard_scaling
)

failures=0
for bench in "${figure_benches[@]}"; do
  binary="$build_dir/$bench"
  if [[ ! -x "$binary" ]]; then
    echo "error: $binary not built" >&2
    failures=$((failures + 1))
    continue
  fi
  name="${bench#bench_}"
  json="$out_dir/BENCH_${name}.json"
  echo "=== $bench -> $json"
  # bench_fig11_savings is analytic and takes no --quick.
  flags=()
  if [[ -n "$quick_flag" && "$bench" != "bench_fig11_savings" ]]; then
    flags+=("$quick_flag")
  fi
  if ! "$binary" "${flags[@]}" --json "$json" > "$out_dir/${bench}.log" 2>&1; then
    echo "error: $bench failed; see $out_dir/${bench}.log" >&2
    failures=$((failures + 1))
  fi
done

# Google-Benchmark micro-bench (built only when libbenchmark is present).
if [[ -x "$build_dir/bench_operators" ]]; then
  json="$out_dir/BENCH_operators.json"
  echo "=== bench_operators -> $json"
  op_flags=()
  if [[ $quick -eq 1 ]]; then op_flags+=(--benchmark_min_time=0.05); fi
  if ! "$build_dir/bench_operators" "${op_flags[@]}" --json "$json" \
      > "$out_dir/bench_operators.log" 2>&1; then
    echo "error: bench_operators failed; see $out_dir/bench_operators.log" >&2
    failures=$((failures + 1))
  fi
else
  echo "note: bench_operators not built (Google Benchmark unavailable); skipping"
fi

echo
if [[ $failures -ne 0 ]]; then
  echo "$failures bench(es) failed" >&2
  exit 1
fi
ls -l "$out_dir"/BENCH_*.json
echo "all benches completed"
