#!/usr/bin/env bash
# CI entry point: build Release and ASan+UBSan configurations, run the
# full test suite on both, then record the micro-bench results as
# BENCH_<name>.json artifacts at the repo root and gate the Release
# fig09 output against the committed baseline.
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

# Micro-bench artifacts (Release binaries). micro_obs_overhead is a
# google-benchmark binary with its own JSON reporter; the rest are
# plain BenchOutput benches.
bench="$out/release/bench"
echo "=== bench artifacts ==="
"$bench/micro_alloc_path" --json "$root/BENCH_micro_alloc_path.json"
"$bench/micro_tlb_spot" --json "$root/BENCH_micro_tlb_spot.json"
"$bench/micro_obs_overhead" \
    --benchmark_out="$root/BENCH_micro_obs_overhead.json" \
    --benchmark_out_format=json
# Observability-tax gate: each disabled-mode loop's ratio to the bare
# loop (BM_TraceDisabled, BM_AttribOff, ...) must stay within
# tolerance of the committed baseline ratios.
python3 "$root/scripts/obs_overhead_gate.py" --check \
    "$root/BENCH_micro_obs_overhead.json" \
    "$root/bench/baselines/BENCH_micro_obs_overhead.json"
"$bench/micro_xlat_scaling" --json "$root/BENCH_micro_xlat_scaling.json"
"$bench/micro_reclaim_path" --json "$root/BENCH_micro_reclaim_path.json"
python3 "$root/scripts/check_bench_json.py" "$bench/micro_alloc_path"
python3 "$root/scripts/check_bench_json.py" "$bench/micro_xlat_scaling"
python3 "$root/scripts/check_bench_json.py" "$bench/fig14_spot_breakdown"
# Memory-pressure schema gate: every micro_reclaim_path cell enables
# reclaim, so its JSON must carry well-formed *.reclaim.* metrics.
python3 "$root/scripts/check_bench_json.py" --expect-reclaim \
    "$bench/micro_reclaim_path"

# SIMD equivalence + speedup gates. The fig13 table with the AVX2
# probes and the same binary under --no-simd must agree on every
# simulated row value (only the wall clock may differ); the ctest
# fig13_simd_equivalence runs the same script. Then the
# replay-throughput ratio: the committed
# baseline records the paper-reproduction evidence (>= 1.5x batched
# SoA+SIMD vs the per-access Reference loop, same-run ratio so it is
# wall-clock-robust); the fresh run is gated at a noise-tolerant
# floor so a silent fallback to the scalar per-access path still
# fails the build.
echo "=== simd equivalence + xlat ratio gate ==="
python3 "$root/scripts/simd_equivalence.py" \
    "$bench/fig13_translation_overhead"
python3 "$root/scripts/xlat_ratio_gate.py" \
    "$root/bench/baselines/BENCH_micro_xlat_scaling.json" \
    --min-ratio 1.5
python3 "$root/scripts/xlat_ratio_gate.py" \
    "$root/BENCH_micro_xlat_scaling.json" --min-ratio 1.2

# Cost-attribution artifacts: fig13/fig14 re-run under --attrib (the
# schema-v4 "attribution" section: per-outcome x contiguity-class
# cost cells, bounded exemplars, fault cells), schema-checked, plus a
# differential contig_report comparing CA-paging (base_2d) against
# SpOT (spot_2d) out of the same fig13 run — the paper's headline:
# full-walk/PSC cycles concentrate in the smallest contiguity classes
# and SpOT hits erase them. The report gate fails the build if SpOT
# ever regresses exposed-cycle cost against CA-paging here.
echo "=== cost attribution artifacts ==="
"$bench/fig13_translation_overhead" --attrib \
    --json "$root/BENCH_fig13_attrib.json"
"$bench/fig14_spot_breakdown" --attrib \
    --json "$root/BENCH_fig14_attrib.json"
python3 "$root/scripts/check_bench_json.py" --expect-attrib \
    "$bench/fig13_translation_overhead" --attrib
"$out/release/tools/contig_report" \
    "$root/BENCH_fig13_attrib.json" "$root/BENCH_fig13_attrib.json" \
    --a-xlat base_2d --b-xlat spot_2d --gate \
    | tee "$root/BENCH_contig_report_ca_vs_spot.txt"
# Off means off: without the switch the same binary must emit no
# attribution section — and the golden ctests above already pin the
# attrib-off output to the committed pre-attribution goldens
# byte-for-byte.
"$bench/fig14_spot_breakdown" --json "$root/BENCH_fig14_plain.json"
python3 - "$root/BENCH_fig14_plain.json" <<'PYEOF'
import json, sys
a = json.load(open(sys.argv[1]))
assert "attribution" not in a, \
    "attribution section leaked into an attrib-off run"
assert not a["config"].get("attrib")
PYEOF

# Regression gate: the fig09 rows/metrics must match the committed
# baseline within contig_inspect's per-metric tolerances.
echo "=== baseline gate ==="
"$bench/fig09_free_blocks" --json "$root/BENCH_fig09_free_blocks.json" \
    --timeline "$root/BENCH_fig09_timeline.jsonl"
python3 "$root/scripts/check_bench_json.py" \
    --timeline-file "$root/BENCH_fig09_timeline.jsonl"
"$out/release/tools/contig_inspect" check-baseline \
    "$root/BENCH_fig09_free_blocks.json" \
    "$root/bench/baselines/BENCH_fig09_free_blocks.json"
# Translation replay gates: component counters and the chunk-size
# sweep are deterministic (chunking, the walk memo, the engine and the
# probe width never move simulated counters); *.wall_us throughput
# columns are ignored.
"$out/release/tools/contig_inspect" check-baseline \
    "$root/BENCH_micro_tlb_spot.json" \
    "$root/bench/baselines/BENCH_micro_tlb_spot.json"
"$out/release/tools/contig_inspect" check-baseline \
    "$root/BENCH_micro_xlat_scaling.json" \
    "$root/bench/baselines/BENCH_micro_xlat_scaling.json"
# Reclaim-path gate: the sequential kernel makes every reclaim/swap/
# refault counter deterministic; only the *.wall_us columns float.
"$out/release/tools/contig_inspect" check-baseline \
    "$root/BENCH_micro_reclaim_path.json" \
    "$root/bench/baselines/BENCH_micro_reclaim_path.json"

echo "CI: all configurations green"
