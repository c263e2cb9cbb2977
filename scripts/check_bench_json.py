#!/usr/bin/env python3
"""Validate a bench binary's --json output against the documented schema.

Usage: check_bench_json.py [--expect-lock-stats] [--expect-scaling]
                           [--expect-trace] [--expect-attrib]
                           [--expect-reclaim]
                           <bench-binary> [extra args...]
       check_bench_json.py --timeline-file <timeline.jsonl>

Runs the bench with --json into a temp file and checks the document is
valid JSON of shape {schema_version, bench, config, rows, metrics}:
  - "schema_version" is an integer (currently 3),
  - "bench" is a non-empty string,
  - "config" is an object with the scaled-machine geometry keys and a
    "run" reproducibility object (RNG seeds, kernel knobs),
  - "rows" is a non-empty list of objects each tagged with its "table"
    caption,
  - "metrics" is a non-empty object of MetricRegistry samples
    (counters/gauges as numbers, summaries as {count, sum, min, max,
    mean}, histograms as {log2_buckets: [...]}).

Schema v3 additions are validated whenever present:
  - "metrics" keys of the form lock.<site>.<leaf> must use exactly the
    leaves {acquisitions, contended, retries, spin_us} and be numeric,
  - the derived "scaling" section must follow the documented shape
    ({parallel: {...}, locks: {top_contended: [...]}},
    every sub-section optional but well-formed when emitted).
Schema v3 trace-frontend additions, also validated whenever present:
  - "config.run" keys trace.in/trace.out require trace.digest; a
    ckpt.at_chunk note requires ckpt.out + ckpt.accesses; a
    ckpt.resume_chunk note requires trace.in,
  - "metrics" keys trace.frontend.<leaf> must use known leaves and be
    numeric; any run noting trace.in must emit them,
  - the "scaling" section may carry a "trace_frontend" decode report.
--expect-lock-stats / --expect-scaling turn presence of lock.* metrics
and of a "scaling" section into hard requirements (used by the ctest
that runs a bench under --lock-stats). --expect-trace first captures a
trace (--trace-out into a temp dir), then runs the validated bench
with --trace-in on it, requiring trace.frontend.* metrics.

Schema v4 additions, validated whenever present:
  - "config.attrib" is a boolean mirroring the --attrib switch,
  - the "attribution" section must follow the documented shape:
    {exemplar_capacity, classes, xlat: {<label>: table}, fault?}, each
    xlat table {events, walk_cycles, exposed_cycles, outcomes:
    {<outcome>: {..., classes: [cost cells]}}, exemplars: [...]} keyed
    by the stable outcome tokens (tlb_hit, segment_hit, spot_hit,
    range_hit, psc_walk, full_walk), every cost cell carrying events /
    cycle sums / p50 / p90 / p99 / hist buckets, exemplars bounded by
    exemplar_capacity, and the fault sub-section keyed by
    (kind x order x fallback).
--expect-attrib turns presence of the "attribution" section into a
hard requirement (used by the attrib_schema_check ctest, which runs a
bench under --attrib).

Memory-pressure additions, validated whenever present:
  - "metrics" keys <kernel-prefix>.reclaim.<leaf> must use the
    ReclaimEngine leaf set (scans, reclaimed, swap_outs, refaults,
    kswapd_runs, direct_reclaims, ...) and be numeric; every prefix
    that emits any reclaim leaf must emit the core trio
    {reclaimed, swap_outs, refaults}.
--expect-reclaim turns presence of *.reclaim.* metrics into a hard
requirement (used by the reclaim_schema_check ctest, which runs a
bench whose kernels enable reclaim).

With --timeline-file it instead validates an observatory timeline: one
JSON snapshot record per line, per-stream strictly-increasing seq and
non-decreasing tick, kind "full"|"delta" with the first record of every
stream a "full".

Registered as a ctest so the schema cannot drift silently.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


LOCK_LEAVES = {"acquisitions", "contended", "retries", "spin_us"}

# Leaves under "<kernel-prefix>.reclaim.": the ReclaimEngine counter
# and gauge set, plus the legacy "direct" alias kept for dashboards.
RECLAIM_LEAVES = {"scans", "rotations", "deactivations", "reclaimed",
                  "swap_outs", "refaults", "swap_cache_hits",
                  "thp_splits", "pagecache_reclaimed", "kswapd_wakes",
                  "kswapd_runs", "direct_reclaims",
                  "targeted_reclaims", "direct_cycles",
                  "kswapd_cycles", "low_watermark_hits",
                  "min_watermark_hits", "pinned_skips", "busy_skips",
                  "swapped_pages", "lru_inactive_pages",
                  "lru_active_pages", "direct"}

# A reclaim-enabled kernel always emits at least these (the headline
# pressure counters); their absence means reclaim never ran.
RECLAIM_CORE = {"reclaimed", "swap_outs", "refaults"}

FRONTEND_LEAVES = {"chunks_decoded", "accesses_decoded",
                   "bytes_decoded", "decode_us", "stall_us", "wait_us",
                   "ring_depth", "start_chunk"}


def check_frontend_metrics(metrics):
    """Validate trace.frontend.<leaf> keys; return True if any seen."""
    seen = False
    for name, value in metrics.items():
        if not name.startswith("trace.frontend."):
            continue
        seen = True
        leaf = name[len("trace.frontend."):]
        if leaf not in FRONTEND_LEAVES:
            fail(f"trace metric {name!r} has unknown leaf {leaf!r} "
                 f"(expected one of {sorted(FRONTEND_LEAVES)})")
        if not isinstance(value, (int, float)):
            fail(f"trace metric {name!r} is not numeric: {value!r}")
    return seen


def check_lock_metrics(metrics):
    """Validate lock.<site>.<leaf> keys; return the site names seen."""
    sites = {}
    for name, value in metrics.items():
        if not name.startswith("lock."):
            continue
        body = name[len("lock."):]
        site, dot, leaf = body.rpartition(".")
        if not dot or not site:
            fail(f"lock metric {name!r} is not of the form "
                 f"lock.<site>.<leaf>")
        if leaf not in LOCK_LEAVES:
            fail(f"lock metric {name!r} has unknown leaf {leaf!r} "
                 f"(expected one of {sorted(LOCK_LEAVES)})")
        if not isinstance(value, (int, float)):
            fail(f"lock metric {name!r} is not numeric: {value!r}")
        sites.setdefault(site, set()).add(leaf)
    for site, leaves in sites.items():
        missing = LOCK_LEAVES - leaves
        if missing:
            fail(f"lock site {site!r} missing leaves {sorted(missing)}")
    return sites


def check_reclaim_metrics(metrics):
    """Validate <prefix>.reclaim.<leaf> keys; return prefixes seen."""
    prefixes = {}
    for name, value in metrics.items():
        if name.startswith("reclaim."):
            prefix, leaf = "", name[len("reclaim."):]
        elif ".reclaim." in name:
            prefix, _, leaf = name.partition(".reclaim.")
        else:
            continue
        if leaf not in RECLAIM_LEAVES:
            fail(f"reclaim metric {name!r} has unknown leaf {leaf!r} "
                 f"(expected one of {sorted(RECLAIM_LEAVES)})")
        if not isinstance(value, (int, float)):
            fail(f"reclaim metric {name!r} is not numeric: {value!r}")
        prefixes.setdefault(prefix, set()).add(leaf)
    engine_prefixes = {}
    for prefix, leaves in prefixes.items():
        if leaves == {"direct"}:
            # Reclaim-off kernels still bump the legacy
            # "reclaim.direct" slow-path counter (dropCaches retry);
            # only a real ReclaimEngine owes the full core set, and
            # only engine-backed prefixes satisfy --expect-reclaim.
            continue
        missing = RECLAIM_CORE - leaves
        if missing:
            fail(f"reclaim prefix {prefix!r} missing core leaves "
                 f"{sorted(missing)}")
        engine_prefixes[prefix] = leaves
    return engine_prefixes


XLAT_OUTCOMES = {"tlb_hit", "segment_hit", "spot_hit", "range_hit",
                 "psc_walk", "full_walk"}

FAULT_KINDS = {"anon", "cow", "file"}
FAULT_ORDERS = {"base", "huge"}
FAULT_FALLS = {"none", "no_huge_block", "oom"}


def check_cost_cell(where, cell, cycle_keys):
    """Validate one cost cell: counts, cycle sums, percentiles, hist."""
    if not isinstance(cell, dict):
        fail(f"'{where}' is not an object")
    for key in ("events", *cycle_keys, "p50", "p90", "p99"):
        if key not in cell:
            fail(f"'{where}' missing {key!r}")
        if not isinstance(cell[key], (int, float)):
            fail(f"'{where}.{key}' is not numeric: {cell[key]!r}")
    if "hist" not in cell:
        fail(f"'{where}' missing 'hist'")
    if not isinstance(cell["hist"], list) or not all(
            isinstance(b, (int, float)) for b in cell["hist"]):
        fail(f"'{where}.hist' must be a list of numbers")
    if not cell["p50"] <= cell["p90"] <= cell["p99"]:
        fail(f"'{where}' percentiles not monotone: "
             f"p50={cell['p50']} p90={cell['p90']} p99={cell['p99']}")


def check_attribution(attrib):
    """Validate the per-event cost 'attribution' section (schema v4)."""
    if not isinstance(attrib, dict):
        fail("'attribution' must be an object")
    for key in ("exemplar_capacity", "classes", "xlat"):
        if key not in attrib:
            fail(f"'attribution' missing {key!r}")
    cap = attrib["exemplar_capacity"]
    n_classes = attrib["classes"]
    if not isinstance(cap, int) or cap <= 0:
        fail(f"'attribution.exemplar_capacity' must be a positive "
             f"integer: {cap!r}")
    if not isinstance(n_classes, int) or n_classes <= 0:
        fail(f"'attribution.classes' must be a positive integer: "
             f"{n_classes!r}")
    xlat = attrib["xlat"]
    if not isinstance(xlat, dict):
        fail("'attribution.xlat' must be an object")
    for label, table in xlat.items():
        where = f"attribution.xlat.{label}"
        if not isinstance(table, dict):
            fail(f"'{where}' is not an object")
        for key in ("events", "walk_cycles", "exposed_cycles",
                    "outcomes", "exemplars"):
            if key not in table:
                fail(f"'{where}' missing {key!r}")
        outcomes = table["outcomes"]
        if not isinstance(outcomes, dict) or not outcomes:
            fail(f"'{where}.outcomes' must be a non-empty object")
        total_events = 0
        for name, outcome in outcomes.items():
            owhere = f"{where}.outcomes.{name}"
            if name not in XLAT_OUTCOMES:
                fail(f"'{owhere}': unknown outcome (expected one of "
                     f"{sorted(XLAT_OUTCOMES)})")
            if not isinstance(outcome, dict):
                fail(f"'{owhere}' is not an object")
            for key in ("events", "walk_cycles", "exposed_cycles",
                        "exposed_p50", "exposed_p90", "exposed_p99"):
                if key not in outcome:
                    fail(f"'{owhere}' missing {key!r}")
            classes = outcome.get("classes")
            if not isinstance(classes, list) or not classes:
                fail(f"'{owhere}.classes' must be a non-empty list "
                     f"(empty outcomes are elided entirely)")
            class_events = 0
            for i, cell in enumerate(classes):
                cwhere = f"{owhere}.classes[{i}]"
                if not isinstance(cell, dict):
                    fail(f"'{cwhere}' is not an object")
                if not isinstance(cell.get("class"), int) or \
                        not 0 <= cell["class"] < n_classes:
                    fail(f"'{cwhere}.class' out of [0,{n_classes}): "
                         f"{cell.get('class')!r}")
                if not isinstance(cell.get("name"), str):
                    fail(f"'{cwhere}.name' must be a string")
                check_cost_cell(cwhere, cell,
                                ("walk_cycles", "exposed_cycles"))
                class_events += cell["events"]
            if class_events != outcome["events"]:
                fail(f"'{owhere}': class events sum {class_events} != "
                     f"outcome events {outcome['events']}")
            total_events += outcome["events"]
        if total_events != table["events"]:
            fail(f"'{where}': outcome events sum {total_events} != "
                 f"table events {table['events']}")
        exemplars = table["exemplars"]
        if not isinstance(exemplars, list) or len(exemplars) > cap:
            fail(f"'{where}.exemplars' must be a list of at most "
                 f"{cap} entries")
        last_cycles = None
        for i, ex in enumerate(exemplars):
            ewhere = f"{where}.exemplars[{i}]"
            if not isinstance(ex, dict):
                fail(f"'{ewhere}' is not an object")
            for key in ("vpn", "cycles", "outcome", "class", "chunk",
                        "seq"):
                if key not in ex:
                    fail(f"'{ewhere}' missing {key!r}")
            if ex["outcome"] not in XLAT_OUTCOMES:
                fail(f"'{ewhere}.outcome' unknown: {ex['outcome']!r}")
            if last_cycles is not None and ex["cycles"] > last_cycles:
                fail(f"'{where}.exemplars' not sorted hottest-first "
                     f"({last_cycles} then {ex['cycles']})")
            last_cycles = ex["cycles"]
    if "fault" in attrib:
        flt = attrib["fault"]
        if not isinstance(flt, dict):
            fail("'attribution.fault' must be an object")
        for key in ("events", "cycles", "cells"):
            if key not in flt:
                fail(f"'attribution.fault' missing {key!r}")
        cells = flt["cells"]
        if not isinstance(cells, list):
            fail("'attribution.fault.cells' must be a list")
        cell_events = 0
        for i, cell in enumerate(cells):
            cwhere = f"attribution.fault.cells[{i}]"
            if not isinstance(cell, dict):
                fail(f"'{cwhere}' is not an object")
            if cell.get("kind") not in FAULT_KINDS:
                fail(f"'{cwhere}.kind' unknown: {cell.get('kind')!r}")
            if cell.get("order") not in FAULT_ORDERS:
                fail(f"'{cwhere}.order' unknown: {cell.get('order')!r}")
            if cell.get("fallback") not in FAULT_FALLS:
                fail(f"'{cwhere}.fallback' unknown: "
                     f"{cell.get('fallback')!r}")
            check_cost_cell(cwhere, cell, ("cycles",))
            cell_events += cell["events"]
        if cell_events != flt["events"]:
            fail(f"'attribution.fault': cell events sum {cell_events} "
                 f"!= section events {flt['events']}")
    return len(xlat)


def check_numeric_list(where, value):
    if not isinstance(value, list) or not value:
        fail(f"'{where}' must be a non-empty list")
    if not all(isinstance(v, (int, float)) for v in value):
        fail(f"'{where}' has non-numeric entries")


def check_scaling(scaling):
    """Validate the derived 'scaling' report section (schema v3)."""
    if not isinstance(scaling, dict) or not scaling:
        fail("'scaling' must be a non-empty object")
    unknown = set(scaling) - {"parallel", "locks", "trace_frontend"}
    if unknown:
        fail(f"'scaling' has unknown sub-sections {sorted(unknown)}")

    if "parallel" in scaling:
        par = scaling["parallel"]
        if not isinstance(par, dict):
            fail("'scaling.parallel' must be an object")
        for key in ("workers", "wall_us", "busy_us_total",
                    "worker_busy_us", "achieved_speedup",
                    "serial_fraction"):
            if key not in par:
                fail(f"'scaling.parallel' missing {key!r}")
        check_numeric_list("scaling.parallel.worker_busy_us",
                           par["worker_busy_us"])
        if len(par["worker_busy_us"]) != par["workers"]:
            fail("'scaling.parallel.worker_busy_us' length != workers")
        if not 0.0 <= par["serial_fraction"] <= 1.0:
            fail(f"'scaling.parallel.serial_fraction' out of [0,1]: "
                 f"{par['serial_fraction']}")

    if "trace_frontend" in scaling:
        tf = scaling["trace_frontend"]
        if not isinstance(tf, dict):
            fail("'scaling.trace_frontend' must be an object")
        for key in ("chunks_decoded", "accesses_decoded",
                    "bytes_decoded", "decode_us", "producer_stall_us",
                    "consumer_wait_us"):
            if key not in tf:
                fail(f"'scaling.trace_frontend' missing {key!r}")
            if not isinstance(tf[key], (int, float)):
                fail(f"'scaling.trace_frontend.{key}' is not numeric: "
                     f"{tf[key]!r}")

    if "locks" in scaling:
        locks = scaling["locks"]
        if not isinstance(locks, dict):
            fail("'scaling.locks' must be an object")
        for key in ("sites", "top_contended"):
            if key not in locks:
                fail(f"'scaling.locks' missing {key!r}")
        top = locks["top_contended"]
        if not isinstance(top, list) or len(top) > 5:
            fail("'scaling.locks.top_contended' must be a list of "
                 "at most 5 entries")
        for i, entry in enumerate(top):
            if not isinstance(entry, dict):
                fail(f"'scaling.locks.top_contended[{i}]' is not an "
                     f"object")
            for key in ("site", "acquisitions", "contended",
                        "retries", "spin_us"):
                if key not in entry:
                    fail(f"'scaling.locks.top_contended[{i}]' "
                         f"missing {key!r}")
        # The ranking invariant: sorted by contended, descending.
        contended = [e["contended"] for e in top]
        if contended != sorted(contended, reverse=True):
            fail("'scaling.locks.top_contended' not sorted by "
                 "contended count")


def check_metric(name, value):
    if isinstance(value, (int, float)):
        return
    if not isinstance(value, dict):
        fail(f"metric {name!r} is neither number nor object: {value!r}")
    if "log2_buckets" in value:
        if not all(isinstance(b, (int, float))
                   for b in value["log2_buckets"]):
            fail(f"histogram {name!r} has non-numeric buckets")
        return
    missing = {"count", "sum", "min", "max", "mean"} - value.keys()
    if missing:
        fail(f"summary {name!r} missing keys {sorted(missing)}")


def check_timeline(path):
    """Validate a --timeline JSONL file (one snapshot per line)."""
    path = Path(path)
    if not path.exists():
        fail(f"timeline file not found: {path}")
    streams = {}  # stream id -> (last seq, last tick)
    n_lines = 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        n_lines += 1
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{lineno}: not valid JSON: {e}")
        if not isinstance(rec, dict):
            fail(f"{path}:{lineno}: record is not an object")
        for key in ("stream", "domain", "seq", "tick", "kind", "set"):
            if key not in rec:
                fail(f"{path}:{lineno}: missing key {key!r}")
        if rec["kind"] not in ("full", "delta"):
            fail(f"{path}:{lineno}: bad kind {rec['kind']!r}")
        if not isinstance(rec["set"], dict):
            fail(f"{path}:{lineno}: 'set' is not an object")
        if not all(isinstance(v, (int, float))
                   for v in rec["set"].values()):
            fail(f"{path}:{lineno}: non-numeric value in 'set'")
        sid, seq, tick = rec["stream"], rec["seq"], rec["tick"]
        if sid not in streams:
            if rec["kind"] != "full":
                fail(f"{path}:{lineno}: stream {sid} starts with a "
                     f"delta record")
        else:
            last_seq, last_tick = streams[sid]
            if seq <= last_seq:
                fail(f"{path}:{lineno}: stream {sid} seq not "
                     f"strictly increasing ({last_seq} -> {seq})")
            if tick < last_tick:
                fail(f"{path}:{lineno}: stream {sid} tick went "
                     f"backwards ({last_tick} -> {tick})")
        streams[sid] = (seq, tick)
    if not n_lines:
        fail(f"{path}: timeline is empty")
    print(f"check_bench_json: OK: timeline {path}: {n_lines} snapshots, "
          f"{len(streams)} streams")


def main():
    argv = sys.argv[1:]
    expect_lock_stats = False
    expect_scaling = False
    expect_trace = False
    expect_attrib = False
    expect_reclaim = False
    while argv and argv[0] in ("--expect-lock-stats", "--expect-scaling",
                               "--expect-trace", "--expect-attrib",
                               "--expect-reclaim"):
        if argv[0] == "--expect-lock-stats":
            expect_lock_stats = True
        elif argv[0] == "--expect-scaling":
            expect_scaling = True
        elif argv[0] == "--expect-attrib":
            expect_attrib = True
        elif argv[0] == "--expect-reclaim":
            expect_reclaim = True
        else:
            expect_trace = True
        argv = argv[1:]
    if not argv:
        fail("usage: check_bench_json.py [--expect-lock-stats] "
             "[--expect-scaling] [--expect-trace] [--expect-attrib] "
             "[--expect-reclaim] <bench-binary> [args...] | "
             "--timeline-file <timeline.jsonl>")
    if argv[0] == "--timeline-file":
        if len(argv) != 2:
            fail("--timeline-file takes exactly one path")
        check_timeline(argv[1])
        return
    bench = Path(argv[0])
    if not bench.exists():
        fail(f"bench binary not found: {bench}")

    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out.json"
        cmd = [str(bench), *argv[1:], "--json", str(out_path)]
        if expect_trace:
            # Capture → replay through the trace frontend inside the
            # temp dir, then validate the replay run's JSON (it carries
            # both trace.in provenance and trace.frontend.* metrics).
            cap = Path(tmp) / "cap"
            proc = subprocess.run(
                [str(bench), *argv[1:], "--json",
                 str(Path(tmp) / "cap.json"), "--trace-out", str(cap)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                timeout=600)
            if proc.returncode != 0:
                fail(f"capture run exited {proc.returncode}:\n"
                     f"{proc.stdout.decode(errors='replace')[-2000:]}")
            if not list(Path(tmp).glob("cap.*.ctrace")):
                fail("--expect-trace: capture produced no .ctrace files")
            cmd += ["--trace-in", str(cap)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=600)
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stdout.decode(errors='replace')[-2000:]}")
        if not out_path.exists():
            fail("bench did not create the --json file")
        try:
            doc = json.loads(out_path.read_text())
        except json.JSONDecodeError as e:
            fail(f"output is not valid JSON: {e}")

    for key in ("schema_version", "bench", "config", "rows", "metrics"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")

    if not isinstance(doc["schema_version"], int):
        fail("'schema_version' must be an integer")
    if doc["schema_version"] < 2:
        fail(f"'schema_version' {doc['schema_version']} predates the "
             f"documented schema (>= 2)")

    if not isinstance(doc["bench"], str) or not doc["bench"]:
        fail("'bench' must be a non-empty string")

    config = doc["config"]
    if not isinstance(config, dict):
        fail("'config' must be an object")
    for key in ("host_nodes", "host_node_bytes"):
        if key not in config:
            fail(f"'config' missing {key!r}")
    if not isinstance(config.get("run"), dict):
        fail("'config.run' (the RunInfo reproducibility record) "
             "must be an object")
    run = config["run"]
    # Every kernel instance (one "<prefix>.instances" counter each)
    # must record its threading knobs: worker-thread count and the
    # per-CPU frame-cache geometry. Not every ".instances" prefix is
    # a kernel — VirtualMachine records "vm.instances" with VM-level
    # knobs only — so identify kernels by a kernel-only config key.
    kernel_prefixes = [k[: -len(".instances")] for k in run
                       if k.endswith(".instances")
                       and f"{k[: -len('.instances')]}.thp_enabled"
                       in run]
    for kp in kernel_prefixes:
        for key in ("threads", "phys.pcp_cpus", "phys.pcp_batch",
                    "phys.pcp_high"):
            if f"{kp}.{key}" not in run:
                fail(f"'config.run' kernel {kp!r} missing {key!r}")
    # Runs that used the ParallelDriver must record the base seed,
    # geometry, and each worker's derived RNG stream seed.
    if "parallel.threads" in run:
        for key in ("parallel.seed", "parallel.bytes_per_worker",
                    "parallel.chunk_bytes"):
            if key not in run:
                fail(f"'config.run' missing {key!r}")
        # Repeated notes (one ParallelDriver per bench cell) are
        # recorded as a list; the last entry is the live value.
        threads = run["parallel.threads"]
        if isinstance(threads, list):
            threads = threads[-1]
        for i in range(int(threads)):
            if f"parallel.worker{i}.seed" not in run:
                fail(f"'config.run' missing parallel.worker{i}.seed")
    # Runs that replayed a translation stream (runTranslation notes
    # "seed.translation") must record the replay-engine knobs: chunk
    # size, the walk-memo toggle, the inner-loop engine
    # (reference/batched), and the probe width (avx2/scalar). None of
    # them changes simulated results — they are recorded so a
    # wall-clock artifact is attributable to its build.
    if "seed.translation" in run:
        for key in ("xlat.chunk_accesses", "xlat.memo", "xlat.engine",
                    "xlat.simd", "xlat.numa_shards"):
            if key not in run:
                fail(f"'config.run' missing {key!r}")
        if run["xlat.engine"] not in ("reference", "batched"):
            fail(f"'xlat.engine' must be reference|batched: "
                 f"{run['xlat.engine']!r}")
        if run["xlat.simd"] not in ("avx2", "scalar"):
            fail(f"'xlat.simd' must be avx2|scalar: "
                 f"{run['xlat.simd']!r}")
    # Trace-frontend provenance: a run that captured (trace.out) or
    # replayed (trace.in) .ctrace files must record the config digest
    # the files are keyed by, and checkpoint notes must come in
    # consistent pairs (interrupted runs note ckpt.out + the snapshot
    # position; resumed runs note where they rejoined the trace).
    if "trace.in" in run or "trace.out" in run:
        if "trace.digest" not in run:
            fail("'config.run' has trace.in/trace.out but no "
                 "trace.digest")
    if "ckpt.at_chunk" in run:
        for key in ("ckpt.out", "ckpt.accesses"):
            if key not in run:
                fail(f"'config.run' has ckpt.at_chunk but no {key!r}")
    if "ckpt.resume_chunk" in run and "trace.in" not in run:
        fail("'config.run' has ckpt.resume_chunk but no trace.in "
             "(resume is only defined while replaying a trace)")

    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        fail("'rows' must be a non-empty list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(f"row {i} is not an object")
        if "table" not in row:
            fail(f"row {i} has no 'table' caption tag")

    metrics = doc["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        fail("'metrics' must be a non-empty object")
    for name, value in metrics.items():
        check_metric(name, value)

    lock_sites = check_lock_metrics(metrics)
    if expect_lock_stats and not lock_sites:
        fail("--expect-lock-stats: no lock.<site>.* metrics in output "
             "(was the bench run with --lock-stats?)")

    reclaim_prefixes = check_reclaim_metrics(metrics)
    if expect_reclaim and not reclaim_prefixes:
        fail("--expect-reclaim: no *.reclaim.* metrics in output "
             "(did any kernel run with reclaimEnabled?)")

    have_frontend = check_frontend_metrics(metrics)
    if "trace.in" in run and not have_frontend:
        fail("run replayed a trace (trace.in noted) but emitted no "
             "trace.frontend.* metrics")
    if expect_trace and not have_frontend:
        fail("--expect-trace: no trace.frontend.* metrics in output")

    if "scaling" in doc:
        check_scaling(doc["scaling"])
    elif expect_scaling:
        fail("--expect-scaling: no 'scaling' section in output")

    if "attrib" in config and not isinstance(config["attrib"], bool):
        fail(f"'config.attrib' must be a boolean: {config['attrib']!r}")
    n_attrib_labels = 0
    if "attribution" in doc:
        if not config.get("attrib"):
            fail("'attribution' section present but config.attrib is "
                 "not true")
        n_attrib_labels = check_attribution(doc["attribution"])
    elif expect_attrib:
        fail("--expect-attrib: no 'attribution' section in output "
             "(was the bench run with --attrib?)")

    extra = ""
    if lock_sites:
        extra = f", {len(lock_sites)} lock sites"
    if reclaim_prefixes:
        extra += f", reclaim ({len(reclaim_prefixes)} kernels)"
    if have_frontend:
        extra += ", trace frontend"
    if "scaling" in doc:
        extra += ", scaling section"
    if n_attrib_labels:
        extra += f", attribution ({n_attrib_labels} xlat labels)"
    print(f"check_bench_json: OK: {doc['bench']}: {len(rows)} rows, "
          f"{len(metrics)} metrics{extra}")


if __name__ == "__main__":
    main()
