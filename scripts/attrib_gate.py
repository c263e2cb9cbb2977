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

It also feeds contig_report copies of that document whose first
base_2d tlb_hit cost cell carries a "class" that is not an unsigned
integer (1e300, 2^64, 1.5, -1), "events" that are a string or
"exposed_cycles" that are negative: each must exit 2 with a message
naming the field.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BAD_CELLS = (("class", 1e300), ("class", 2**64), ("class", 1.5),
             ("class", -1), ("events", "many"), ("exposed_cycles", -5))


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
        for field, bad in BAD_CELLS:
            reject_bad_cell(report, doc, Path(tmp) / "bad_cell.json",
                            field, bad)
    print("attrib_gate: OK")


def reject_bad_cell(report, doc, bad_doc, field, bad):
    data = json.loads(doc.read_text())
    outcomes = data["attribution"]["xlat"]["base_2d"]["outcomes"]
    outcomes["tlb_hit"]["classes"][0][field] = bad
    bad_doc.write_text(json.dumps(data))
    cmd = [report, bad_doc, doc, "--a-xlat", "base_2d", "--b-xlat", "spot_2d"]
    print("+", " ".join(str(c) for c in cmd), flush=True)
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 2 or f'"{field}"' not in proc.stderr:
        print(proc.stderr[-400:], file=sys.stderr)
        print(f"attrib_gate: FAIL: {field} {bad!r}: exit "
              f"{proc.returncode}, want 2 and a message naming "
              f"\"{field}\"", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
