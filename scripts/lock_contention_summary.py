#!/usr/bin/env python3
"""Summarize (or gate) the lock-contention profile of --lock-stats runs.

Usage: lock_contention_summary.py [--out SUMMARY.json] BENCH.json...
       lock_contention_summary.py --check BASELINE.json BENCH.json...

Reads one or more bench --json documents produced under --lock-stats
and reduces their lock.<site>.* metrics and "scaling" sections to a
*structural* contention summary:

  - which lock sites were observed at all (their names),
  - which of them recorded any acquisitions ("acquired": true/false),
  - which scaling sub-sections ("parallel", "locks") each bench
    emitted.

Raw counts are deliberately NOT part of the summary: acquisition and
contention totals vary run to run with thread scheduling, so a count
gate would flake. The structure, though, is deterministic — the set
of instrumented lock sites a bench touches and the report sections it
emits only change when the code changes. That is exactly what the
committed baseline (bench/baselines/BENCH_lock_contention.json) pins.

With --check, compares the freshly generated summary against the
baseline: every baseline site must still be present with the same
"acquired" flag, and every baseline section must still be emitted.
New sites/sections in the current run are allowed (adding
instrumentation is not a regression); disappearing ones fail.
"""

import json
import sys
from pathlib import Path

LOCK_LEAVES = ("acquisitions", "contended", "retries", "spin_us")


def fail(msg):
    print(f"lock_contention_summary: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    path = Path(path)
    if not path.exists():
        fail(f"file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{path}: not valid JSON: {e}")


def summarize_one(doc, path):
    """Reduce one bench document to its structural contention shape."""
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(f"{path}: no 'metrics' object")
    sites = {}
    for name, value in metrics.items():
        if not name.startswith("lock.") or not isinstance(
                value, (int, float)):
            continue
        site, _, leaf = name[len("lock."):].rpartition(".")
        if leaf not in LOCK_LEAVES or not site:
            continue
        entry = sites.setdefault(site, {"acquired": False})
        if leaf == "acquisitions" and value > 0:
            entry["acquired"] = True
    if not sites:
        fail(f"{path}: no lock.<site>.* metrics — was the bench run "
             f"with --lock-stats?")
    scaling = doc.get("scaling", {})
    return {
        "bench": doc.get("bench", str(path)),
        "sites": {k: sites[k] for k in sorted(sites)},
        "scaling_sections": sorted(scaling)
        if isinstance(scaling, dict) else [],
    }


def check(baseline, current):
    """Every baseline site/section must survive in the current run."""
    cur_by_bench = {s["bench"]: s for s in current["benches"]}
    errors = []
    for base in baseline.get("benches", []):
        bench = base["bench"]
        cur = cur_by_bench.get(bench)
        if cur is None:
            errors.append(f"bench {bench!r} missing from current run")
            continue
        for site, info in base.get("sites", {}).items():
            cur_info = cur["sites"].get(site)
            if cur_info is None:
                errors.append(f"{bench}: lock site {site!r} vanished")
            elif info.get("acquired") and not cur_info.get("acquired"):
                errors.append(f"{bench}: lock site {site!r} no longer "
                              f"records acquisitions")
        for section in base.get("scaling_sections", []):
            if section not in cur.get("scaling_sections", []):
                errors.append(f"{bench}: scaling section {section!r} "
                              f"no longer emitted")
    if errors:
        for e in errors:
            print(f"lock_contention_summary: {e}", file=sys.stderr)
        fail(f"{len(errors)} structural contention regression(s)")
    print(f"lock_contention_summary: OK: "
          f"{len(baseline.get('benches', []))} bench(es) match the "
          f"baseline structure")


def main():
    argv = sys.argv[1:]
    if not argv:
        fail("usage: lock_contention_summary.py [--out SUMMARY.json] "
             "BENCH.json... | --check BASELINE.json BENCH.json...")

    check_baseline = None
    out_path = None
    if argv[0] == "--check":
        if len(argv) < 3:
            fail("--check needs a baseline and at least one bench json")
        check_baseline = load(argv[1])
        argv = argv[2:]
    elif argv[0] == "--out":
        if len(argv) < 3:
            fail("--out needs a path and at least one bench json")
        out_path = Path(argv[1])
        argv = argv[2:]

    summary = {
        "summary": "lock_contention",
        "benches": [summarize_one(load(p), p) for p in argv],
    }

    if check_baseline is not None:
        check(check_baseline, summary)
        return

    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if out_path:
        out_path.write_text(text)
        print(f"lock_contention_summary: wrote {out_path}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
