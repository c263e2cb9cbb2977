#!/usr/bin/env python3
"""A bench must fail, not report success, when its output cannot be written.

Usage: write_error_check.py <bench-binary>

Runs the bench once per output flag (--json, --timeline) with
/dev/full as the file, where every write fails with ENOSPC. Each run
must exit 1, name the path on stderr and print no "wrote" line.
Exits 77, which ctest reports as skipped, where /dev/full does not
exist.
"""

import os
import subprocess
import sys

SKIPPED = 77
FULL = "/dev/full"


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if not os.path.exists(FULL):
        print(f"write_error_check: no {FULL} on this host, skipped")
        return SKIPPED
    bench = sys.argv[1]
    failed = False
    for flag in ("--json", "--timeline"):
        r = subprocess.run([bench, flag, FULL], capture_output=True,
                           text=True, timeout=600)
        wrote = [l for l in r.stdout.splitlines() if "wrote" in l]
        ok = r.returncode == 1 and not wrote and FULL in r.stderr
        print(f"{flag} {FULL}: exit {r.returncode}, "
              f"{len(wrote)} 'wrote' line(s): {'ok' if ok else 'FAIL'}")
        if not ok:
            print(r.stderr.strip()[-400:], file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
