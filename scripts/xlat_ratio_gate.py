#!/usr/bin/env python3
"""Gate the batched replay speedup measured by micro_xlat_scaling.

Usage: xlat_ratio_gate.py <BENCH_micro_xlat_scaling.json>
                          [--min-ratio R]

micro_xlat_scaling replays the same fig13 access stream through the
batched SoA engine (the `chunk_sweep` chunk=4096 cell — the shipping
default) and through the historical per-access Reference loop
(the `engine_ref` cell) in the same process. Absolute wall clock is
machine-dependent, but the ratio between the two cells of one run is
not: both replay identical work back to back on the same core, so

    speedup = replay.wall_us(engine_ref) / replay.wall_us(default)

prices exactly the SoA layout + batched pipeline + inline probes.
The gate fails when the speedup falls under --min-ratio.

Two call sites:
  - the committed baseline (bench/baselines/...) is gated at the
    paper-reproduction floor (1.5x) — the recorded evidence — by the
    baseline_xlat_ratio ctest (bench/CMakeLists.txt);
  - the fresh CI run is gated at a noise-tolerant 1.2x in
    scripts/ci.sh — shared CI boxes jitter, but losing the whole
    batching win (a ratio near 1.0x) means the Batched engine
    silently fell back to the per-access path.

Also requires the simulated counter columns (accesses, walks,
l1_hits, l2_hits, exposed_cycles) of the engine_ref cell to be
byte-equal to the default cell — the engines must differ in wall
clock only.
"""

import json
import sys
from pathlib import Path

COUNTERS = ("accesses", "walks", "l1_hits", "l2_hits", "exposed_cycles")


def fail(msg):
    print(f"xlat_ratio_gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def find_cell(rows, cell, chunk=4096):
    for r in rows:
        if r.get("cell") == cell and r.get("chunk") == chunk:
            return r
    fail(f"no '{cell}' row (chunk={chunk})")


def main():
    argv = sys.argv[1:]
    min_ratio = 1.5
    if "--min-ratio" in argv:
        i = argv.index("--min-ratio")
        min_ratio = float(argv[i + 1])
        del argv[i:i + 2]
    if len(argv) != 1:
        fail("usage: xlat_ratio_gate.py <bench.json> [--min-ratio R]")

    doc = json.loads(Path(argv[0]).read_text())
    rows = doc.get("rows", [])
    default = find_cell(rows, "chunk_sweep")
    ref = find_cell(rows, "engine_ref")

    for c in COUNTERS:
        if ref.get(c) != default.get(c):
            fail(f"engine_ref.{c} = {ref.get(c)} differs from the "
                 f"default cell's {default.get(c)} — engines must only "
                 f"differ in wall clock")

    base_us = float(default["replay.wall_us"])
    ref_us = float(ref["replay.wall_us"])
    if base_us <= 0 or ref_us <= 0:
        fail("non-positive replay.wall_us")
    speedup = ref_us / base_us
    print(f"xlat_ratio_gate: batched vs reference: {speedup:.2f}x "
          f"[floor {min_ratio:.2f}x]")
    if speedup < min_ratio:
        fail(f"speedup {speedup:.2f}x under the {min_ratio:.2f}x floor")
    print("xlat_ratio_gate: OK")


if __name__ == "__main__":
    main()
