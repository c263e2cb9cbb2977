#!/usr/bin/env python3
"""Peak-RSS budget: a binary's peak resident set must stay under a cap.

Usage: rss_budget.py --max-mb MB <binary> [args...]

Runs the binary to completion with its stdout discarded and reads its
peak RSS through os.wait4. The rusage wait4 returns covers the child
and every descendant it reaped, so a bench that forks its cells is
charged its largest cell. Fails if the binary exits non-zero or if
the peak (ru_maxrss / 1024, the MB perfbench reports) exceeds MB.

The binary runs with transparent huge pages turned off
(PR_SET_THP_DISABLE, inherited across fork and exec), so a host whose
THP mode is `always` measures the same 4 KiB-page residency as any
other host.
"""

import argparse
import ctypes
import os
import subprocess
import sys

PR_SET_THP_DISABLE = 41


def disable_thp():
    """Turn THP off for this process and every child it starts."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0:
        print("rss_budget: warning: cannot disable THP: "
              + os.strerror(ctypes.get_errno()), file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(
        usage="%(prog)s --max-mb MB <binary> [args...]")
    ap.add_argument("--max-mb", type=float, required=True)
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if not args.cmd:
        ap.error("no binary given")
    disable_thp()
    proc = subprocess.Popen(args.cmd, stdout=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    rc = os.waitstatus_to_exitcode(status)
    peak_mb = ru.ru_maxrss / 1024.0
    name = os.path.basename(args.cmd[0])
    if rc != 0:
        print(f"rss_budget: FAIL: {name} exited {rc}", file=sys.stderr)
        return 1
    ok = peak_mb <= args.max_mb
    print(f"rss_budget: {name} peak RSS {peak_mb:.1f} MB, "
          f"budget {args.max_mb:.1f} MB: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
