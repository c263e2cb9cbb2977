#!/usr/bin/env python3
"""Cost-attribution gate on fig13 (registered as a ctest).

Usage: attrib_gate.py <fig13-binary> <contig_report-binary>

Runs fig13_translation_overhead once under --attrib, checks its
"attribution" section against the documented schema
(check_bench_json.py --expect-attrib), then compares CA paging
(base_2d) against SpOT (spot_2d) out of the same run with
`contig_report --gate`: the paper's headline is that full-walk and
PSC cycles concentrate in the smallest contiguity classes and SpOT
hits erase them, so the gate fails if SpOT's exposed-cycle cost ever
regresses against CA paging here.
"""

import subprocess
import sys
import tempfile
from pathlib import Path


def run(cmd):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    proc = subprocess.run([str(c) for c in cmd], timeout=600)
    if proc.returncode != 0:
        print(f"attrib_gate: FAIL: exit {proc.returncode}: "
              f"{' '.join(str(c) for c in cmd)}", file=sys.stderr)
        sys.exit(1)


def main():
    if len(sys.argv) != 3:
        print("usage: attrib_gate.py <fig13> <contig_report>",
              file=sys.stderr)
        sys.exit(1)
    fig13, report = sys.argv[1:3]
    checker = Path(__file__).resolve().parent / "check_bench_json.py"
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "fig13_attrib.json"
        run([fig13, "--attrib", "--json", doc])
        run([sys.executable, checker, "--expect-attrib", "--json-file", doc])
        run([report, doc, doc, "--a-xlat", "base_2d", "--b-xlat", "spot_2d",
             "--gate"])
    print("attrib_gate: OK")


if __name__ == "__main__":
    main()
