#!/usr/bin/env python3
"""Smoke-test contig_top against a real bench timeline.

Usage: contig_top_smoke.py <bench-binary> <contig_top-binary>

Runs the bench with --timeline into a temp dir, then points contig_top
at the finished JSONL in --once --plain mode — exactly the file a live
run would be appending to, so this exercises the same tail/decode/render
path the interactive monitor uses. The frame must render the per-zone table
from the stream's final snapshot.

Registered as a ctest (contig_top_smoke).
"""

import subprocess
import sys
import tempfile
from pathlib import Path


def fail(msg):
    print(f"contig_top_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout)
    text = proc.stdout.decode(errors="replace")
    print("+", " ".join(str(c) for c in cmd))
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(str(c) for c in cmd)}\n"
             f"{text[-2000:]}")
    return text


def main():
    if len(sys.argv) != 3:
        fail("usage: contig_top_smoke.py <bench> <contig_top>")
    bench, top = Path(sys.argv[1]), Path(sys.argv[2])
    for binary in (bench, top):
        if not binary.exists():
            fail(f"binary not found: {binary}")

    with tempfile.TemporaryDirectory() as tmp:
        timeline = Path(tmp) / "timeline.jsonl"
        run([str(bench), "--timeline", str(timeline)], timeout=600)
        if not timeline.exists() or not timeline.stat().st_size:
            fail("bench produced no timeline JSONL")
        frame = run([str(top), str(timeline), "--once", "--plain"],
                    timeout=60)

    for needle in ("contig_top", "zone", "free", "fmfi"):
        if needle not in frame:
            fail(f"rendered frame is missing {needle!r}:\n{frame[-2000:]}")
    print("contig_top_smoke: OK: frame rendered "
          f"({len(frame.splitlines())} lines)")


if __name__ == "__main__":
    main()
