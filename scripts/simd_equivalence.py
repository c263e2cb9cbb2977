#!/usr/bin/env python3
"""fig13's simulated rows must not depend on the SIMD probe kernels.

Usage: simd_equivalence.py <fig13-binary>

Runs fig13_translation_overhead twice, with the SSE2 probes (where the
build has them) and under --no-simd, and requires every row value to
agree; only the host wall-clock (*.wall_us) columns may differ. Both
runs must note their probe mode (config.run "xlat.simd").
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def rows(bench, extra, path):
    subprocess.run([bench, *extra, "--json", str(path)], check=True,
                   stdout=subprocess.DEVNULL, timeout=600)
    doc = json.loads(path.read_text())
    if not doc["config"]["run"].get("xlat.simd"):
        sys.exit(f"simd_equivalence: FAIL: {path.name}: no xlat.simd note")
    return [{k: v for k, v in r.items() if not k.endswith(".wall_us")}
            for r in doc["rows"]]


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        simd = rows(bench, [], Path(tmp) / "simd.json")
        nosimd = rows(bench, ["--no-simd"], Path(tmp) / "nosimd.json")
    if simd != nosimd:
        print("simd_equivalence: FAIL: fig13 rows differ between the "
              "SIMD probes and --no-simd", file=sys.stderr)
        return 1
    print(f"fig13 simd equivalence: {len(simd)} rows identical "
          "across simd / --no-simd")
    return 0


if __name__ == "__main__":
    sys.exit(main())
