#!/usr/bin/env python3
"""Which keys `contig_inspect check-baseline` gates, and which it skips.

Usage: baseline_keys_check.py <contig_inspect-binary>

Writes a small baseline document shaped like a bench --json (rows
with host-timed columns, counters, summaries, a `*.wall_us` phase
timer) and edited copies of it, and runs check-baseline on each copy
against the baseline. A key whose last path segment contains `wall`
is host wall-clock time: changing or dropping it must pass. Changing
or dropping any simulated row cell, counter or summary must fail.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BASELINE = {
    "schema_version": 6,
    "bench": "keys_check",
    "config": {},
    "rows": [
        {"policy": "ca", "pages": 512, "per-fault wall us/page": 0.42,
         "batched wall us/page": 0.19, "wall speedup": 2.21,
         "wall us/op": 3.5},
    ],
    "metrics": {
        "kernel.faults": 1000,
        "kernel.fault_latency_us.p50": {"count": 1, "sum": 1.9,
                                        "min": 1.9, "max": 1.9,
                                        "mean": 1.9},
        "phase.kernel.fault.wall_us": {"count": 4, "sum": 812.0,
                                       "min": 100.0, "max": 300.0,
                                       "mean": 203.0},
    },
}


def edited(fn):
    doc = copy.deepcopy(BASELINE)
    fn(doc)
    return doc


def row(doc):
    return doc["rows"][0]


# (name, edit, check-baseline must pass)
CASES = [
    ("unchanged", lambda d: None, True),
    ("row wall columns moved",
     lambda d: row(d).update({"per-fault wall us/page": 9.0,
                              "batched wall us/page": 9.0,
                              "wall speedup": 0.5, "wall us/op": 70.0}),
     True),
    ("phase timer moved",
     lambda d: d["metrics"]["phase.kernel.fault.wall_us"].update(
         sum=1.0, mean=0.25), True),
    ("phase timer dropped",
     lambda d: d["metrics"].pop("phase.kernel.fault.wall_us"), True),
    ("row wall column dropped", lambda d: row(d).pop("wall us/op"), True),
    ("row cell moved", lambda d: row(d).update(pages=513), False),
    ("row string moved", lambda d: row(d).update(policy="thp"), False),
    ("counter moved",
     lambda d: d["metrics"].update({"kernel.faults": 1001}), False),
    ("counter dropped", lambda d: d["metrics"].pop("kernel.faults"), False),
    ("summary moved",
     lambda d: d["metrics"]["kernel.fault_latency_us.p50"].update(sum=2.0),
     False),
    ("summary dropped",
     lambda d: d["metrics"].pop("kernel.fault_latency_us.p50"), False),
]


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    inspect = sys.argv[1]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base.json"
        base.write_text(json.dumps(BASELINE))
        cur = Path(tmp) / "cur.json"
        for name, fn, should_pass in CASES:
            cur.write_text(json.dumps(edited(fn)))
            proc = subprocess.run([inspect, "check-baseline", str(cur),
                                   str(base)], stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=60)
            want = 0 if should_pass else 1
            ok = proc.returncode == want
            failed |= not ok
            print(f"{'ok' if ok else 'FAIL'}: {name}: exit "
                  f"{proc.returncode}, want {want}")
            if not ok:
                print(proc.stdout.decode(errors="replace"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
