#!/usr/bin/env python3
"""Capture/replay/checkpoint equivalence gate for the trace frontend.

Usage: trace_roundtrip_check.py <bench-binary> [--ckpt-at 3]
                                [--artifacts DIR] [--attrib]

Proves the full trace-frontend contract on one bench binary:

  1. live run, teeing every translation replay to .ctrace files
     (--trace-out); the capture must not perturb the simulation,
  2. replay run feeding the same engine from the captured traces
     (--trace-in): canonical JSON must be byte-identical to the live
     run,
  3. interrupted replay that snapshots at chunk K and stops
     (--ckpt-out --ckpt-at K),
  4. resumed replay from those snapshots (--ckpt-in): canonical JSON
     must again be byte-identical to the live run.

"Canonical" strips only wall-clock-dependent material: phase/lock
timing metrics, walk-memo occupancy, the derived scaling section, and
the trace.*/ckpt.* bookkeeping keys that legitimately differ between a
live and a replayed run. Every simulated counter — hits, walks,
cycles, SpOT predictions, fault statistics — must match exactly.

With --attrib every run additionally carries the cost-attribution
switch and must emit an "attribution" section; the section is part of
the canonical document, so per-outcome x contiguity-class cost cells,
percentiles, and exemplars must survive capture → replay →
checkpoint → resume byte-for-byte (the attribution table is
checkpointed; the fault path re-runs identically on resume).
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TIME_SUFFIXES = ("busy_us", "stall_us", "wait_us", "wall_us")
TIME_PREFIXES = ("phase.", "trace.", "lock.")


def fail(msg):
    print(f"trace_roundtrip_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(binary, json_path, *flags):
    cmd = [str(binary), "--json", str(json_path), *flags]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=900)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
             f"{proc.stdout.decode(errors='replace')[-2000:]}")
    return json.loads(Path(json_path).read_text())


def canonical(doc):
    """Drop wall-clock and run-provenance keys; keep every simulated
    counter. Returns a deterministic dump for byte comparison."""
    doc = json.loads(json.dumps(doc))  # deep copy
    metrics = doc.get("metrics", {})
    for key in list(metrics):
        if (key.startswith(TIME_PREFIXES) or ".memo." in key
                or key.endswith(TIME_SUFFIXES)):
            del metrics[key]
    doc.pop("scaling", None)
    run_cfg = doc.get("config", {}).get("run", {})
    for key in list(run_cfg):
        if key.startswith(("trace.", "ckpt.")):
            del run_cfg[key]
    return json.dumps(doc, sort_keys=True, indent=1)


def expect_same(name, live, other):
    a, b = canonical(live), canonical(other)
    if a == b:
        print(f"trace_roundtrip_check: OK: {name} is canonical-identical"
              " to the live run")
        return
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if la != lb:
            fail(f"{name} diverged from the live run at line {i}:\n"
                 f"  live:   {la}\n  {name}: {lb}")
    fail(f"{name} diverged from the live run (lengths differ)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary", type=Path)
    ap.add_argument("--ckpt-at", type=int, default=3)
    ap.add_argument("--artifacts", type=Path, default=None,
                    help="keep traces/checkpoints/JSONs here")
    ap.add_argument("--attrib", action="store_true",
                    help="run everything under --attrib and require "
                         "the attribution section to round-trip")
    args = ap.parse_args()
    if not args.binary.exists():
        fail(f"bench binary not found: {args.binary}")

    work = Path(tempfile.mkdtemp(prefix="trace_roundtrip_"))
    try:
        trace = work / "cap"
        ckpt_at = str(args.ckpt_at)

        def require_attrib(name, doc):
            if args.attrib and "attribution" not in doc:
                fail(f"--attrib: {name} run emitted no attribution "
                     f"section")

        flags = ["--attrib"] if args.attrib else []
        live = run(args.binary, work / "live.json", *flags,
                   "--trace-out", trace)
        n = len(list(work.glob("cap.*.ctrace")))
        if n == 0:
            fail("--trace-out produced no .ctrace files")
        print(f"trace_roundtrip_check: captured {n} trace(s)")
        require_attrib("live", live)

        replay = run(args.binary, work / "replay.json", *flags,
                     "--trace-in", trace)
        require_attrib("replay", replay)
        expect_same("replay", live, replay)

        ck = work / "ck"
        run(args.binary, work / "int.json", *flags, "--trace-in", trace,
            "--ckpt-out", ck, "--ckpt-at", ckpt_at)
        if not list(work.glob("ck.*.ckpt")):
            fail("--ckpt-out produced no .ckpt files")
        resumed = run(args.binary, work / "resume.json", *flags,
                      "--trace-in", trace, "--ckpt-in", ck)
        require_attrib("resume", resumed)
        expect_same("resume", live, resumed)
        if args.artifacts:
            args.artifacts.mkdir(parents=True, exist_ok=True)
            for p in sorted(work.iterdir()):
                shutil.copy2(p, args.artifacts / p.name)
            print(f"trace_roundtrip_check: artifacts in {args.artifacts}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("trace_roundtrip_check: PASS")


if __name__ == "__main__":
    main()
