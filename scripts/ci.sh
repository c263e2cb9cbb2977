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
# gates, which need an idle machine, run here.
echo "=== bench artifacts ==="
"$root/scripts/bench_artifacts.sh" "$out/release/bench" "$root"

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
