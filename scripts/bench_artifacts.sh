#!/usr/bin/env bash
# Record bench results as BENCH_<name>.json artifacts (plus fig09's
# timeline JSONL) from one build's bench binaries. micro_obs_overhead
# is a google-benchmark binary with its own JSON reporter; the rest are
# plain BenchOutput benches.
# Usage: scripts/bench_artifacts.sh <bench-dir> <out-dir>
set -euo pipefail

bench="$1"
out="$2"

"$bench/micro_alloc_path" --json "$out/BENCH_micro_alloc_path.json"
"$bench/micro_tlb_spot" --json "$out/BENCH_micro_tlb_spot.json"
"$bench/micro_obs_overhead" \
    --benchmark_out="$out/BENCH_micro_obs_overhead.json" \
    --benchmark_out_format=json
"$bench/micro_xlat_scaling" --json "$out/BENCH_micro_xlat_scaling.json"
"$bench/micro_reclaim_path" --json "$out/BENCH_micro_reclaim_path.json"
"$bench/fig13_translation_overhead" --attrib \
    --json "$out/BENCH_fig13_attrib.json"
"$bench/fig14_spot_breakdown" --attrib \
    --json "$out/BENCH_fig14_attrib.json"
"$bench/fig09_free_blocks" --json "$out/BENCH_fig09_free_blocks.json" \
    --timeline "$out/BENCH_fig09_timeline.jsonl"
