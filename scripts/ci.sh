#!/usr/bin/env bash
# CI entry point: build Release and ASan+UBSan configurations, run the
# full test suite on both, then record bench results as
# BENCH_<name>.json artifacts at the repo root and run the wall-clock
# ratio gates on the Release build.
# Usage: scripts/ci.sh [build-root]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$root/build-ci}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

build_and_test() {
    local name="$1"
    shift
    echo "=== [$name] configure ==="
    cmake -S "$root" -B "$out/$name" "$@"
    echo "=== [$name] build ==="
    cmake --build "$out/$name" -j "$jobs"
    echo "=== [$name] ctest ==="
    ctest --test-dir "$out/$name" --output-on-failure
}

build_and_test release -DCMAKE_BUILD_TYPE=Release
build_and_test asan-ubsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCONTIG_SANITIZE=ON

# Bench artifacts (Release binaries) as BENCH_<name>.json at the repo
# root. Every deterministic gate on these benches (schema, baseline,
# committed replay ratio, attribution and reclaim checks) is a ctest
# and ran above; only the two wall-clock ratio
# gates, which need an idle machine, run here. micro_obs_overhead is
# a google-benchmark binary with its own JSON reporter; the rest are
# plain BenchOutput benches.
bench="$out/release/bench"
echo "=== bench artifacts ==="
"$bench/micro_alloc_path" --json "$root/BENCH_micro_alloc_path.json"
"$bench/micro_tlb_spot" --json "$root/BENCH_micro_tlb_spot.json"
"$bench/micro_obs_overhead" \
    --benchmark_out="$root/BENCH_micro_obs_overhead.json" \
    --benchmark_out_format=json
"$bench/micro_xlat_scaling" --json "$root/BENCH_micro_xlat_scaling.json"
"$bench/micro_reclaim_path" --json "$root/BENCH_micro_reclaim_path.json"
"$bench/fig13_translation_overhead" --attrib \
    --json "$root/BENCH_fig13_attrib.json"
"$bench/fig14_spot_breakdown" --attrib \
    --json "$root/BENCH_fig14_attrib.json"
"$bench/fig09_free_blocks" --json "$root/BENCH_fig09_free_blocks.json" \
    --timeline "$root/BENCH_fig09_timeline.jsonl"

# Observability-tax gate: each disabled-mode loop's ratio to the bare
# loop (BM_SamplerDetached, BM_AttribOff) must stay within tolerance
# of the committed baseline ratios.
echo "=== wall-clock gates ==="
python3 "$root/scripts/obs_overhead_gate.py" --check \
    "$root/BENCH_micro_obs_overhead.json" \
    "$root/bench/baselines/BENCH_micro_obs_overhead.json"
# Replay-throughput ratio of a fresh run, gated at a noise-tolerant
# floor so a silent fallback to the scalar per-access path still
# fails the build (the committed baseline's 1.5x evidence is the
# baseline_xlat_ratio ctest).
python3 "$root/scripts/xlat_ratio_gate.py" \
    "$root/BENCH_micro_xlat_scaling.json" --min-ratio 1.2

echo "CI: all configurations green"
