#!/usr/bin/env python3
"""Gate the observability tax measured by micro_obs_overhead.

Usage: obs_overhead_gate.py --record <benchmark_out.json> <baseline.json>
       obs_overhead_gate.py --check  <benchmark_out.json> <baseline.json>
                            [--tolerance FRACTION]

micro_obs_overhead is a google-benchmark binary; its --benchmark_out
JSON carries absolute per-iteration times that are meaningless across
machines. What IS portable is the *ratio* of each instrumented loop to
the bare loop from the same run (same machine, same boost state):

    ratio(B) = cpu_time(B) / cpu_time(BM_BareLoop)

--record reduces a fresh benchmark_out file to those ratios and writes
them as the committed baseline. --check recomputes them from a new run
and fails if any tracked benchmark's ratio grew by more than the
tolerance (default 0.25, i.e. 25% relative — CI machines are noisy;
a real regression such as an unconditional clock read behind a
disabled switch shows up as 2-10x, far above it).

Registered in scripts/ci.sh after the bench-artifact step.
"""

import json
import sys
from pathlib import Path

# Benchmarks whose ratio-to-bare is gated: the switched-off observers
# the hot paths carry. BM_SnapshotCapture, BM_AttribOn etc. price
# enabled-mode features and are recorded for reference but not gated.
GATED = (
    "BM_SamplerDetached",
    "BM_AttribOff",
)


def fail(msg):
    print(f"obs_overhead_gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def ratios(path):
    doc = json.loads(Path(path).read_text())
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        times[b["name"]] = float(b["cpu_time"])
    if "BM_BareLoop" not in times:
        fail(f"{path}: no BM_BareLoop row to normalize against")
    bare = times["BM_BareLoop"]
    if bare <= 0:
        fail(f"{path}: BM_BareLoop cpu_time is not positive")
    return {name: t / bare for name, t in sorted(times.items())
            if name != "BM_BareLoop"}


def main():
    argv = sys.argv[1:]
    tolerance = 0.25
    if "--tolerance" in argv:
        i = argv.index("--tolerance")
        tolerance = float(argv[i + 1])
        del argv[i:i + 2]
    if len(argv) != 3 or argv[0] not in ("--record", "--check"):
        fail("usage: obs_overhead_gate.py --record|--check "
             "<benchmark_out.json> <baseline.json> "
             "[--tolerance FRACTION]")
    mode, bench_out, baseline_path = argv

    current = ratios(bench_out)

    if mode == "--record":
        doc = {"normalized_to": "BM_BareLoop", "ratios": current}
        Path(baseline_path).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"obs_overhead_gate: recorded {len(current)} ratios "
              f"to {baseline_path}")
        return

    base_doc = json.loads(Path(baseline_path).read_text())
    base = base_doc.get("ratios", {})
    errors = []
    for name in GATED:
        if name not in current:
            errors.append(f"{name}: missing from current run")
            continue
        if name not in base:
            errors.append(f"{name}: missing from baseline "
                          f"(re-record {baseline_path})")
            continue
        cur, ref = current[name], base[name]
        if cur > ref * (1.0 + tolerance):
            errors.append(
                f"{name}: ratio-to-bare {cur:.3f} exceeds baseline "
                f"{ref:.3f} by more than {tolerance:.0%}")
        else:
            print(f"obs_overhead_gate: {name}: {cur:.3f} vs "
                  f"baseline {ref:.3f} (ok)")
    if errors:
        for e in errors:
            print(f"obs_overhead_gate: {e}", file=sys.stderr)
        fail(f"{len(errors)} overhead regression(s)")
    print("obs_overhead_gate: OK")


if __name__ == "__main__":
    main()
