#!/usr/bin/env python3
"""Golden gate: a bench's default-flag stdout must equal its golden.

Usage: golden_check.py <bench-binary> <golden.txt>

The committed goldens (tests/golden/<bench>.txt) pin the printed
tables of the benches whose numbers the reproduction stands on, byte
for byte. Every default that must stay invisible is pinned this way:
reclaim off, attribution off and the replay engine's chunking all
leave the tables exactly as captured. The ctest
suite runs one instance per pinned bench so `ctest -j` runs them in
parallel.

Regenerate a golden only for an intentional model change, never to
absorb a diff — a byte moving here means a default is no longer free.
"""

import subprocess
import sys
from pathlib import Path


def fail(msg):
    print(f"golden_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def diff_lines(got, want):
    """First differing line of two byte outputs, for the error text."""
    for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if a != b:
            return (f"line {i}:\n  got:    {a.decode(errors='replace')}"
                    f"\n  golden: {b.decode(errors='replace')}")
    return f"lengths differ ({len(got)} vs {len(want)} bytes)"


def main():
    if len(sys.argv) != 3:
        fail("usage: golden_check.py <bench-binary> <golden.txt>")
    binary, golden = Path(sys.argv[1]), Path(sys.argv[2])
    if not binary.exists():
        fail(f"bench binary not found: {binary}")
    if not golden.exists():
        fail(f"missing golden {golden}")
    # Goldens are stdout only: diagnostics on stderr (sanitizer
    # reports, warnings) are shown on failure but never compared.
    proc = subprocess.run([str(binary)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)
    if proc.returncode != 0:
        fail(f"{binary} exited {proc.returncode}:\n"
             f"{proc.stderr.decode(errors='replace')[-2000:]}")
    want = golden.read_bytes()
    if proc.stdout != want:
        fail(f"{binary.name} diverged from {golden.name}: "
             f"{diff_lines(proc.stdout, want)}")
    print(f"golden_check: OK: {binary.name} == {golden.name}")


if __name__ == "__main__":
    main()
