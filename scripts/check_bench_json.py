#!/usr/bin/env python3
"""Validate a bench binary's --json output against the documented schema.

Usage: check_bench_json.py [--expect-attrib | --expect-no-attrib]
                           [--expect-reclaim]
                           <bench-binary> [extra args...]
       check_bench_json.py [same flags] --json-file <doc.json>
       check_bench_json.py --timeline-file <timeline.jsonl>

Runs the bench with --json into a temp file (or reads a document a
bench already wrote) and checks the document is valid JSON of shape
{schema_version, bench, config, rows, metrics}:
  - "schema_version" is the current integer, 6,
  - "bench" is a non-empty string,
  - "config" is an object with the scaled-machine geometry keys and a
    "run" reproducibility object (RNG seeds, kernel knobs),
  - "rows" is a non-empty list of objects each tagged with its "table"
    caption,
  - "metrics" is a non-empty object of MetricRegistry samples: only
    counters are bare values, and those are integers; summaries
    (point values too, as one-sample summaries) are {count, sum,
    min, max, mean} and histograms {log2_buckets: [...]}.

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
bench under --attrib). --expect-no-attrib requires the opposite: no
"attribution" section and no true config.attrib, as a run without
--attrib must leave (the check_bench_json_fig14 ctest).

Memory-pressure additions, validated whenever present:
  - "metrics" keys <kernel-prefix>.reclaim.<leaf> must use the
    ReclaimEngine leaf set (scans, reclaimed, swap_outs, refaults,
    kswapd_runs, direct_reclaims, ...); the point values
    (swapped_pages, lru_inactive_pages, lru_active_pages) must be
    summaries and every other leaf a counter; every prefix
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


# The bench JSON document schema this checker knows
# (BenchOutput::kSchemaVersion).
SCHEMA_VERSION = 6

# Leaves under "<kernel-prefix>.reclaim.": the ReclaimEngine counters,
# plus the legacy "direct" alias kept for dashboards, and its point
# values, which are one-sample summaries.
RECLAIM_POINTS = {"swapped_pages", "lru_inactive_pages",
                  "lru_active_pages"}
RECLAIM_LEAVES = {"scans", "rotations", "deactivations", "reclaimed",
                  "swap_outs", "refaults", "swap_cache_hits",
                  "thp_splits", "pagecache_reclaimed", "kswapd_wakes",
                  "kswapd_runs", "direct_reclaims",
                  "targeted_reclaims", "direct_cycles",
                  "kswapd_cycles", "low_watermark_hits",
                  "min_watermark_hits", "pinned_skips", "busy_skips",
                  "direct"} | RECLAIM_POINTS

# A reclaim-enabled kernel always emits at least these (the headline
# pressure counters); their absence means reclaim never ran.
RECLAIM_CORE = {"reclaimed", "swap_outs", "refaults"}

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
        if leaf in RECLAIM_POINTS:
            if not is_summary(value):
                fail(f"reclaim point value {name!r} is not a summary: "
                     f"{value!r}")
        elif not is_count(value):
            fail(f"reclaim counter {name!r} is not an unsigned "
                 f"integer: {value!r}")
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


def is_count(value):
    """A counter's value: a bare unsigned integer."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


def is_summary(value):
    return (isinstance(value, dict)
            and {"count", "sum", "min", "max", "mean"} <= value.keys())


def check_metric(name, value):
    if not isinstance(value, dict):
        if not is_count(value):
            fail(f"metric {name!r} is bare but not an unsigned integer "
                 f"(only counters are bare): {value!r}")
        return
    if "log2_buckets" in value:
        if not all(is_count(b) for b in value["log2_buckets"]):
            fail(f"histogram {name!r} has non-integer buckets")
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


def load_doc(path):
    if not path.exists():
        fail(f"no --json document at {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"output is not valid JSON: {e}")


def run_bench(argv):
    """Run `bench args...` with --json into a temp file; its document."""
    bench = Path(argv[0])
    if not bench.exists():
        fail(f"bench binary not found: {bench}")
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out.json"
        cmd = [str(bench), *argv[1:], "--json", str(out_path)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=600)
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stdout.decode(errors='replace')[-2000:]}")
        if not out_path.exists():
            fail("bench did not create the --json file")
        return load_doc(out_path)


def main():
    argv = sys.argv[1:]
    expect_attrib = False
    expect_no_attrib = False
    expect_reclaim = False
    while argv and argv[0] in ("--expect-attrib", "--expect-no-attrib",
                               "--expect-reclaim"):
        if argv[0] == "--expect-attrib":
            expect_attrib = True
        elif argv[0] == "--expect-no-attrib":
            expect_no_attrib = True
        else:
            expect_reclaim = True
        argv = argv[1:]
    if not argv or (expect_attrib and expect_no_attrib):
        fail("usage: check_bench_json.py "
             "[--expect-attrib | --expect-no-attrib] [--expect-reclaim] "
             "<bench-binary> [args...] | --json-file <doc.json> | "
             "--timeline-file <timeline.jsonl>")
    if argv[0] == "--timeline-file":
        if len(argv) != 2:
            fail("--timeline-file takes exactly one path")
        check_timeline(argv[1])
        return
    if argv[0] == "--json-file":
        if len(argv) != 2:
            fail("--json-file takes exactly one path")
        doc = load_doc(Path(argv[1]))
    else:
        doc = run_bench(argv)

    for key in ("schema_version", "bench", "config", "rows", "metrics"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")

    if doc["schema_version"] != SCHEMA_VERSION:
        fail(f"'schema_version' must be {SCHEMA_VERSION}: "
             f"{doc['schema_version']!r}")

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
    # Runs that replayed a translation stream (runTranslation notes
    # "seed.translation") must record the replay-engine knobs: chunk
    # size, the walk-memo toggle, the inner-loop engine
    # (reference/batched), and the probe kernel (sse2/scalar). None of
    # them changes simulated results — they are recorded so a
    # wall-clock artifact is attributable to its build.
    if "seed.translation" in run:
        for key in ("xlat.chunk_accesses", "xlat.memo", "xlat.engine",
                    "xlat.simd"):
            if key not in run:
                fail(f"'config.run' missing {key!r}")
        if run["xlat.engine"] not in ("reference", "batched"):
            fail(f"'xlat.engine' must be reference|batched: "
                 f"{run['xlat.engine']!r}")
        if run["xlat.simd"] not in ("sse2", "scalar"):
            fail(f"'xlat.simd' must be sse2|scalar: "
                 f"{run['xlat.simd']!r}")

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

    reclaim_prefixes = check_reclaim_metrics(metrics)
    if expect_reclaim and not reclaim_prefixes:
        fail("--expect-reclaim: no *.reclaim.* metrics in output "
             "(did any kernel run with reclaimEnabled?)")

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
    if expect_no_attrib and ("attribution" in doc or config.get("attrib")):
        fail("--expect-no-attrib: attribution leaked into a run "
             "without --attrib")

    extra = ""
    if reclaim_prefixes:
        extra += f", reclaim ({len(reclaim_prefixes)} kernels)"
    if n_attrib_labels:
        extra += f", attribution ({n_attrib_labels} xlat labels)"
    print(f"check_bench_json: OK: {doc['bench']}: {len(rows)} rows, "
          f"{len(metrics)} metrics{extra}")


if __name__ == "__main__":
    main()
