#!/usr/bin/env python3
"""Gate a bench's fresh --json output against its committed baseline.

Usage: baseline_check.py <bench-binary> <contig_inspect-binary>
                         <committed-baseline.json>

Runs the bench with --json into a temp file, then compares it with
`contig_inspect check-baseline`, which ignores the wall-clock columns
and holds every simulated counter to the baseline. Registered as one
ctest per baselined bench.
"""

import subprocess
import sys
import tempfile
from pathlib import Path


def run(cmd):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=600)
    if proc.returncode != 0:
        print(proc.stdout.decode(errors="replace")[-2000:])
        print(f"baseline_check: FAIL: exit {proc.returncode}: "
              f"{' '.join(str(c) for c in cmd)}", file=sys.stderr)
        sys.exit(1)
    return proc.stdout.decode(errors="replace")


def main():
    if len(sys.argv) != 4:
        print("usage: baseline_check.py <bench> <contig_inspect> "
              "<baseline.json>", file=sys.stderr)
        sys.exit(1)
    bench, inspect, baseline = sys.argv[1:4]
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "bench.json"
        run([bench, "--json", doc])
        print(run([inspect, "check-baseline", doc, baseline]), end="")


if __name__ == "__main__":
    main()
