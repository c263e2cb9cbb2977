#!/usr/bin/env python3
"""Forked cells must leave the JSON document of an inline run.

Usage: cells_json_check.py <bench-binary>

Runs the bench with --json twice: once pinned to one CPU (through
os.sched_setaffinity in the child, so its cell pool runs every leg
inline, in the serial order), and once with this process's affinity
mask, so the pool forks its legs. The two documents must be equal
once every key containing "wall" is dropped, and the two stdouts
equal once the "wrote" line is dropped: a fork may change host
wall-clock time and nothing else. Exits 77, which ctest reports as
skipped, where the affinity mask holds a single CPU: both runs would
then be inline.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SKIPPED = 77


def drop_wall(v):
    """v without any object key that contains "wall", at any depth."""
    if isinstance(v, dict):
        return {k: drop_wall(x) for k, x in v.items() if "wall" not in k}
    if isinstance(v, list):
        return [drop_wall(x) for x in v]
    return v


def first_difference(a, b, path="$"):
    """Path and values of the first place two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return f"{path}.{k}: present on one side only"
            d = first_difference(a[k], b[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: {len(a)} vs {len(b)} entries"
        for i, (x, y) in enumerate(zip(a, b)):
            d = first_difference(x, y, f"{path}[{i}]")
            if d:
                return d
        return None
    if a != b or type(a) is not type(b):
        return f"{path}: {a!r} (inline) vs {b!r} (forked)"
    return None


def run(bench, json_path, cpus=None):
    """Run the bench once; returns its stdout without the wrote line."""
    pin = None
    if cpus is not None:
        def pin():
            os.sched_setaffinity(0, cpus)
    r = subprocess.run([bench, "--json", str(json_path)],
                       capture_output=True, text=True, timeout=600,
                       preexec_fn=pin)
    if r.returncode != 0:
        print(r.stderr.strip()[-400:], file=sys.stderr)
        raise SystemExit(f"cells_json_check: FAIL: {bench} exited "
                         f"{r.returncode}")
    return "\n".join(l for l in r.stdout.splitlines()
                     if not l.startswith("json: wrote"))


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = sys.argv[1]
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        print("cells_json_check: one CPU in the affinity mask, both runs "
              "would be inline: skipped")
        return SKIPPED
    with tempfile.TemporaryDirectory() as tmp:
        inline_json = Path(tmp) / "inline.json"
        forked_json = Path(tmp) / "forked.json"
        inline_out = run(bench, inline_json, {min(cpus)})
        forked_out = run(bench, forked_json)
        inline_doc = drop_wall(json.loads(inline_json.read_text()))
        forked_doc = drop_wall(json.loads(forked_json.read_text()))
    name = os.path.basename(bench)
    failed = False
    if inline_out != forked_out:
        print(f"cells_json_check: FAIL: {name}: stdout differs between "
              "the inline and the forked run", file=sys.stderr)
        failed = True
    diff = first_difference(inline_doc, forked_doc)
    if diff:
        print(f"cells_json_check: FAIL: {name}: --json differs: {diff}",
              file=sys.stderr)
        failed = True
    if not failed:
        print(f"cells_json_check: {name}: inline (1 CPU) and forked "
              f"({len(cpus)} CPUs) runs agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
