#!/usr/bin/env python3
"""Reproduction benchmark of the contig simulator (CA paging + SpOT).

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

It builds the repository from source into .bench_build/ (Release), runs
one workload as a closed loop for about S seconds, checks every
simulated result against a reference, prints a readable report and, as
the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are its per-layer ones, taken from spans the
benchmark records around each call into a layer. Full results, span
files and run facts land in .bench_out/. README.md in this directory
documents the workloads, metrics and predictions.
"""

import argparse
import fcntl
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
PERFBENCH = BUILD / "contig_perfbench"

WORKLOADS = ("frag_sweep", "virt_replay", "overcommit", "repro_suite")

# The paper reproduction: every fig/table/ext/ablate binary, in
# bench/CMakeLists.txt order.
SUITE = (
    "fig01b_eager_fragmentation", "fig01c_ranger_delay",
    "table1_ranges_anchors", "fig07_native_contiguity",
    "fig08_fragmentation", "fig09_free_blocks", "fig10_multiprogrammed",
    "fig11_sw_overhead", "fig12_virt_contiguity",
    "fig13_translation_overhead", "fig14_spot_breakdown", "fig_overcommit",
    "table5_fault_latency", "table6_bloat", "table7_usl",
    "ablate_placement", "ablate_sorted_list", "ablate_offset_fifo",
    "ablate_spot_table", "ablate_mark_threshold", "ext_reservation",
    "ext_ca_ranger", "ext_5level_paging", "ext_shadow_paging",
)
# Binaries whose stdout the repository pins in tests/golden/.
GOLDEN = {"fig08_fragmentation", "fig09_free_blocks",
          "fig13_translation_overhead", "fig14_spot_breakdown"}
# A few sub-second binaries: the suite's short mode (self-test).
SUITE_SHORT = ("fig01c_ranger_delay", "fig09_free_blocks",
               "fig10_multiprogrammed", "ablate_sorted_list")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "faults_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = ("phys", "virt", "mm", "policies", "obs", "tlb", "spot", "ranges",
          "contig", "workloads", "core")
FAULT_IN_POLICIES = ("thp", "ingens", "ca", "eager", "ranger", "ideal")
MODEL = ("ca_cov32_pct", "spot_overhead_pct", "thp_virt_overhead_pct",
         "overcommit_cov32_pct")
# Paper-reported values beside each modelled metric (README.md).
PAPER = {
    "ca_cov32_pct": "Fig. 8: CA tracks ideal under hog-50 (no cov32 figure "
                    "quoted; ~94% cov128)",
    "spot_overhead_pct": "Fig. 13: ~0.9%",
    "thp_virt_overhead_pct": "Fig. 13: ~16.5%",
    "overcommit_cov32_pct": "extension, no paper value",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    u = {}
    for what in ("build", "destroy"):
        u[f"phys.{what}_ms.p50"] = "ms"
        u[f"phys.{what}_ms.p90"] = "ms"
        u[f"phys.{what}.count"] = "count"
    u["virt.build_ms"] = "ms"
    u["virt.host_faults"] = "count"
    u["virt.guest_faults"] = "count"
    for p in FAULT_IN_POLICIES:
        u[f"mm.fault_in_s.{p}"] = "s"
    u["mm.ns_per_fault"] = "ns"
    u["mm.teardown_s"] = "s"
    u["mm.faults"] = "count"
    u["mm.huge_faults"] = "count"
    u["mm.sim_fault_cycles"] = "cycles"
    for leaf in ("scans", "swap_outs", "refaults", "direct", "kswapd_runs"):
        u[f"mm.reclaim.{leaf}"] = "count"
    u["mm.reclaim.reclaimed_per_scan"] = "ratio"
    u["policies.tick_s.ingens"] = "s"
    u["policies.tick_s.ranger"] = "s"
    u["policies.migrate_pages"] = "count"
    u["policies.migrate_pages_per_tick"] = "count"
    u["obs.sample_s"] = "s"
    for v in ("native_4k", "native_thp", "virt_4k", "virt_thp"):
        u[f"tlb.replay_s.{v}"] = "s"
    u["tlb.ns_per_access"] = "ns"
    u["tlb.l2_miss_ratio"] = "ratio"
    u["tlb.walk_refs_per_walk"] = "count"
    u["tlb.accesses"] = "count"
    u["tlb.walks"] = "count"
    u["spot.replay_s"] = "s"
    u["spot.accuracy"] = "ratio"
    u["spot.coverage"] = "ratio"
    u["ranges.replay_s.rmm"] = "s"
    u["ranges.replay_s.ds"] = "s"
    u["ranges.hit_ratio"] = "ratio"
    u["contig.extract_s"] = "s"
    u["workloads.gen_ns_per_access"] = "ns"
    u["workloads.hog_s"] = "s"
    for b in SUITE:
        u[f"core.suite.{b}.wall_s"] = "s"
    for layer in LAYERS:
        u[f"share.{layer}_pct"] = "%"
    for m in MODEL:
        u[f"model.{m}"] = "%"
    u["trace.unattributed_pct"] = "%"
    u["trace.overhead_pct"] = "%"
    return u


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# The child process in flight, stopped with us on SIGTERM/SIGINT.
_child = None


def _stop(signum, _frame):
    if _child is not None and _child.returncode is None:
        try:
            _child.kill()
            os.waitpid(_child.pid, 0)
        except OSError:
            pass
    sys.exit(128 + signum)


# --- processes ----------------------------------------------------------------

def run_child(cmd, timeout, stdout_path, stderr_path):
    """Run one child to completion; returns (exit code, wall s, maxrss MB).

    The child is reaped with wait4 so its own peak RSS is read, not the
    running maximum over every child this process has waited for.
    """
    global _child
    with open(stdout_path, "wb") as fo, open(stderr_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=fo, stderr=fe,
                                cwd=ROOT)
        _child = proc
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _child = None
    return proc.returncode, wall, ru.ru_maxrss / 1024.0


def build(targets):
    """Configure (once) and build the given targets, under a lock."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no repository sources beside {HERE.name}/ "
                         "(expected CMakeLists.txt and src/ at the root)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc, _, _ = run_child(["cmake", "-S", HERE, "-B", BUILD, *gen,
                                  "-DCMAKE_BUILD_TYPE=Release"],
                                 600, log, log.with_suffix(".err"))
            if rc != 0:
                raise BenchError(f"cmake configure failed, see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        rc, _, _ = run_child(["cmake", "--build", BUILD, "-j", jobs,
                              "--target", *targets],
                             840, log, log.with_suffix(".err"))
        if rc != 0:
            raise BenchError(f"build failed, see {log}")


def run_facts(seed, bin_facts):
    """Commit, compiler, build type, nproc, SIMD mode and seed."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for d in ("src", "bench", HERE.name):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    compiler = "?"
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "compiler": f"{compiler} {bin_facts.get('compiler', '?')}",
        "build_type": bin_facts.get("build_type", "?"),
        "nproc": os.cpu_count(),
        "simd": bin_facts.get("simd", "?"),
        "seed": seed,
    }


# --- references ---------------------------------------------------------------

def reference_text(binary):
    if binary in GOLDEN:
        return (ROOT / "tests" / "golden" / f"{binary}.txt").read_bytes()
    return (HERE / "references" / f"{binary}.txt").read_bytes()


def mask_table5(text):
    """Mask the host wall-clock columns of table5's batched addendum.

    Column widths follow the widest cell, so the addendum compares as
    whitespace-split tokens with only the first three columns (policy,
    faults, p99) kept; everything before it compares byte for byte.
    """
    lines = text.decode(errors="replace").splitlines()
    out = []
    in_addendum = False
    for line in lines:
        if "addendum" in line:
            in_addendum = True
            out.append(line)
        elif in_addendum and line.strip() and not line.startswith(("paper",
                                                                  "==")):
            out.append(" ".join(line.split()[:3]) + " *")
        else:
            out.append(line)
    return "\n".join(out)


def same_output(binary, got):
    want = reference_text(binary)
    if binary == "table5_fault_latency":
        return mask_table5(got) == mask_table5(want)
    return got == want


def row_tokens(text, first, nth=0):
    """Whitespace tokens of the nth line whose leading tokens are `first`."""
    k = 0
    for line in text.splitlines():
        t = line.split()
        if t[:len(first)] == first:
            if k == nth:
                return t
            k += 1
    return None


def anchor_ok(name, tokens):
    """Compare a fixed-seed anchor's tokens with the committed output."""
    if name == "golden.fig08.hog-50%.CA":
        row = row_tokens(reference_text("fig08_fragmentation").decode(),
                         ["hog-50%", "CA"])
        return row is not None and row[2:5] == tokens
    if name.startswith("golden.fig13."):
        wl = name.split(".")[-1]
        row = row_tokens(
            reference_text("fig13_translation_overhead").decode(), [wl])
        return row is not None and row[4:8] == tokens
    if name.startswith("reference.fig_overcommit."):
        _, _, table, policy, victims = name.split(".")
        row = row_tokens(reference_text("fig_overcommit").decode(),
                         [policy, victims], 0 if table == "act" else 1)
        return row == tokens
    return False


# --- span analysis -------------------------------------------------------------

def analyse_spans(path):
    """Per traced pass: self time by span name, durations, wall."""
    spans = []
    with open(path) as f:
        for line in f:
            name, start, end, parent, cell, pss = line.rstrip("\n").split("\t")
            spans.append((name, int(start), int(end), int(parent),
                          int(cell), int(pss)))
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    passes = {}
    for i, (name, start, end, parent, _, pss) in enumerate(spans):
        p = passes.setdefault(pss, {"self": {}, "dur": {}, "wall": 0.0})
        dur = (end - start) * 1e-9
        p["self"][name] = p["self"].get(name, 0.0) + dur - child[i] * 1e-9
        p["dur"].setdefault(name, []).append(dur)
        if name == "pass":
            p["wall"] = dur
    return list(passes.values())


def pct(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(p, ev):
    """Per-layer metrics of one traced pass `p` with exact events `ev`."""
    s = p["self"]
    wall = p["wall"]

    def self_of(prefix):
        return sum(v for k, v in s.items()
                   if k == prefix or k.startswith(prefix + "."))

    m = {}
    for what in ("build", "destroy"):
        d = sorted(x * 1e3 for x in p["dur"].get(f"phys.{what}", []))
        m[f"phys.{what}_ms.p50"] = statistics.median(d) if d else 0.0
        m[f"phys.{what}_ms.p90"] = pct(d, 0.90)
        m[f"phys.{what}.count"] = len(d)
    vb = p["dur"].get("virt.build", [])
    m["virt.build_ms"] = statistics.median(vb) * 1e3 if vb else 0.0
    m["virt.host_faults"] = ev["host_faults"]
    m["virt.guest_faults"] = ev["guest_faults"]
    for pol in FAULT_IN_POLICIES:
        m[f"mm.fault_in_s.{pol}"] = s.get(f"mm.fault_in.{pol}", 0.0)
    faulting = (self_of("mm.fault_in") + self_of("virt.fault_in") +
                self_of("mm.retouch") + self_of("workloads.hog"))
    m["mm.ns_per_fault"] = ratio(faulting * 1e9, ev["faults"])
    m["mm.teardown_s"] = self_of("mm.teardown")
    m["mm.faults"] = ev["faults"]
    m["mm.huge_faults"] = ev["huge_faults"]
    m["mm.sim_fault_cycles"] = ev["fault_cycles"]
    m["mm.reclaim.scans"] = ev["reclaim_scans"]
    m["mm.reclaim.swap_outs"] = ev["swap_outs"]
    m["mm.reclaim.refaults"] = ev["refaults"]
    m["mm.reclaim.direct"] = ev["direct_reclaims"]
    m["mm.reclaim.kswapd_runs"] = ev["kswapd_runs"]
    m["mm.reclaim.reclaimed_per_scan"] = ratio(ev["reclaimed"],
                                               ev["reclaim_scans"])
    m["policies.tick_s.ingens"] = s.get("policies.tick.ingens", 0.0)
    m["policies.tick_s.ranger"] = s.get("policies.tick.ranger", 0.0)
    m["policies.migrate_pages"] = ev["migrate_pages"]
    m["policies.migrate_pages_per_tick"] = ratio(ev["migrate_pages"],
                                                 ev["daemon_ticks"])
    m["obs.sample_s"] = self_of("obs.sample")
    for v in ("native_4k", "native_thp", "virt_4k", "virt_thp"):
        m[f"tlb.replay_s.{v}"] = s.get(f"tlb.replay.{v}", 0.0)
    replay = (self_of("tlb.replay") + self_of("spot.replay") +
              self_of("ranges.replay"))
    m["tlb.ns_per_access"] = ratio(replay * 1e9, ev["accesses"])
    m["tlb.l2_miss_ratio"] = ratio(ev["walks"],
                                   ev["accesses"] - ev["l1_hits"])
    m["tlb.walk_refs_per_walk"] = ratio(ev["walk_refs"], ev["walks"])
    m["tlb.accesses"] = ev["accesses"]
    m["tlb.walks"] = ev["walks"]
    m["spot.replay_s"] = self_of("spot.replay")
    spec = ev["spot_correct"] + ev["spot_mispredicted"]
    m["spot.accuracy"] = ratio(ev["spot_correct"], spec)
    m["spot.coverage"] = ratio(spec, spec + ev["spot_no_prediction"])
    m["ranges.replay_s.rmm"] = s.get("ranges.replay.rmm", 0.0)
    m["ranges.replay_s.ds"] = s.get("ranges.replay.ds", 0.0)
    m["ranges.hit_ratio"] = ratio(ev["range_hits"],
                                  ev["range_hits"] + ev["range_walks"])
    m["contig.extract_s"] = self_of("contig.extract")
    m["workloads.gen_ns_per_access"] = ratio(
        self_of("workloads.gen") * 1e9, ev["accesses"])
    m["workloads.hog_s"] = self_of("workloads.hog")
    for layer in LAYERS:
        m[f"share.{layer}_pct"] = ratio(self_of(layer), wall) * 100.0
    unattributed = self_of("pass") + self_of("cell")
    m["trace.unattributed_pct"] = ratio(unattributed, wall) * 100.0
    return m


def sum_of_medians(rows):
    """Sum over cells of each cell's median across passes.

    Host noise here comes in bursts shorter than a pass; a per-cell
    median drops a burst that hits one pass's cell, where a median of
    whole passes keeps it whenever few passes fit in a run.
    """
    return sum(statistics.median(col) for col in zip(*rows))


def median_dict(dicts):
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


# --- workloads ----------------------------------------------------------------

def run_perfbench(workload, seed, seconds, trace, short):
    """Run contig_perfbench; returns its parsed output and peak RSS."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    spans = OUT / f"spans-{tag}.tsv"
    cmd = [PERFBENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}"]
    if trace:
        cmd += ["--spans", spans]
    if short:
        cmd.append("--short")
    out, err = OUT / f"perfbench-{tag}.out", OUT / f"perfbench-{tag}.err"
    rc, _, rss = run_child(cmd, 120 + 2 * seconds, out, err)
    if rc != 0:
        raise BenchError(f"contig_perfbench exited {rc}, see {err}")
    res = {"facts": {}, "passes": [], "checks": [], "rss_mb": rss,
           "spans": spans if trace else None}
    for line in out.read_text().splitlines():
        obj = json.loads(line)
        if "facts" in obj:
            res["facts"] = obj["facts"]
        elif "pass" in obj:
            res["passes"].append(obj)
        elif "check" in obj:
            res["checks"].append(obj)
    if not res["passes"]:
        raise BenchError("contig_perfbench reported no pass")
    return res


def in_process(workload, seed, seconds, trace, short):
    build(["contig_perfbench"])
    d = run_perfbench(workload, seed, seconds, trace, short)
    passes = d["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    checks = []
    for c in d["checks"]:
        ok = c["ok"] and (not c["tokens"] or anchor_ok(c["check"],
                                                       c["tokens"]))
        checks.append((c["check"], ok))
    attempted = sum(p["cells"] for p in passes) + len(checks)
    failed = sum(p["failed"] for p in passes) + \
        sum(1 for _, ok in checks if not ok)

    ev = passes[0]["events"]
    wall = sum_of_medians([p["cell_wall_s"] for p in untraced])
    res = {
        "workload": workload,
        "facts": run_facts(seed, d["facts"]),
        "passes": [{k: p[k] for k in ("pass", "traced", "wall_s",
                                      "setup_s", "cells", "failed")}
                   for p in passes],
        "events": ev,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "wall_s": wall,
            "setup_s": sum_of_medians([p["cell_setup_s"]
                                       for p in untraced]),
            "faults_per_s": ev["faults"] / wall,
            "peak_rss_mb": d["rss_mb"],
        },
        "accesses_per_s": ev["accesses"] / wall,
        "model": dict(passes[0]["model"]),
    }
    if trace:
        per_pass = analyse_spans(d["spans"])
        layer = median_dict([layer_metrics(p, ev) for p in per_pass])
        traced_wall = sum_of_medians([p["cell_wall_s"] for p in traced])
        layer["trace.overhead_pct"] = (traced_wall / wall - 1.0) * 100.0
        res["layer"] = layer
    return res


def suite_outputs_model(outputs):
    """The modelled metrics as the paper binaries print them."""
    def num(tok):
        return float(tok.rstrip("%")) if tok else 0.0

    m = {k: 0.0 for k in MODEL}
    f08 = row_tokens(outputs.get("fig08_fragmentation", ""),
                     ["hog-50%", "CA"])
    if f08:
        m["ca_cov32_pct"] = num(f08[2])
    f13 = row_tokens(outputs.get("fig13_translation_overhead", ""),
                     ["mean"])
    if f13:
        m["thp_virt_overhead_pct"] = num(f13[2])
        m["spot_overhead_pct"] = num(f13[3])
    oc = row_tokens(outputs.get("fig_overcommit", ""), ["CA", "contig"], 1)
    if oc:
        m["overcommit_cov32_pct"] = num(oc[2])
    return m


def repro_suite(seed, seconds, trace, short):
    """The 24 paper binaries back to back, in a seed-permuted order."""
    binaries = list(SUITE_SHORT if short else SUITE)
    build(["contig_perfbench", *binaries])
    # Set-up: the suite's machines are built inside its binaries, so
    # set-up time is read from contig_perfbench building one machine of
    # every configuration the suite uses, several times over.
    probe = run_perfbench("machines", seed, 1.5, trace, False)
    setup_s = sum_of_medians([p["cell_setup_s"] for p in probe["passes"]
                              if not p["traced"]])

    order = binaries[:]
    random.Random(seed).shuffle(order)
    suite_dir = OUT / "suite"
    suite_dir.mkdir(parents=True, exist_ok=True)
    t_end = time.perf_counter() + seconds
    rounds = []
    outputs = {}
    failed = 0
    attempted = 0
    suite_ok = {}
    rss = probe["rss_mb"]
    while True:
        walls = {}
        events = {"faults": 0, "guest_faults": 0, "accesses": 0,
                  "walks": 0, "reclaim_scans": 0}
        t0 = time.perf_counter()
        for b in order:
            jpath = suite_dir / f"{b}.json"
            cmd = [BUILD / "contig" / "bench" / b, "--json", jpath]
            out, err = suite_dir / f"{b}.out", suite_dir / f"{b}.err"
            rc, w, r = run_child(cmd, 60, out, err)
            walls[b] = w
            rss = max(rss, r)
            attempted += 1
            text = out.read_bytes()
            tail = f"json: wrote {jpath}\n".encode()
            if text.endswith(tail):
                text = text[:-len(tail)]
            ok = rc == 0 and same_output(b, text)
            suite_ok[b] = suite_ok.get(b, True) and ok
            if not ok:
                failed += 1
                why = f"exit {rc}" if rc else "output differs from reference"
                print(f"suite: {b} FAILED: {why}", file=sys.stderr)
            outputs[b] = text.decode(errors="replace")
            if rc == 0:
                metrics = json.loads(jpath.read_text())["metrics"]
                for k, v in metrics.items():
                    if not isinstance(v, (int, float)):
                        continue
                    if k in ("kernel.faults", "guest.faults"):
                        events["faults"] += v
                    if k == "guest.faults":
                        events["guest_faults"] += v
                    if k == "xlat.accesses":
                        events["accesses"] += v
                    if k == "xlat.walks":
                        events["walks"] += v
                    if k.endswith(".reclaim.scans"):
                        events["reclaim_scans"] += v
        rounds.append((time.perf_counter() - t0, walls, events))
        if time.perf_counter() + rounds[-1][0] > t_end:
            break

    wall = sum_of_medians([[r[1][b] for b in order] for r in rounds])
    ev = rounds[0][2]
    res = {
        "workload": "repro_suite",
        "facts": run_facts(seed, probe["facts"]),
        "passes": [{"pass": i, "traced": False, "wall_s": r[0],
                    "setup_s": setup_s, "cells": len(order),
                    "failed": 0} for i, r in enumerate(rounds)],
        "events": ev,
        "checks": [(f"suite.{b}", suite_ok[b]) for b in order],
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "wall_s": wall,
            "setup_s": setup_s,
            "faults_per_s": ev["faults"] / wall,
            "peak_rss_mb": rss,
        },
        "accesses_per_s": ev["accesses"] / wall,
        "model": suite_outputs_model(outputs),
        "order": order,
    }
    if trace:
        layer = {k: 0.0 for k in per_layer_units()}
        per_pass = analyse_spans(probe["spans"])
        probe_ev = probe["passes"][0]["events"]
        probe_layer = median_dict([layer_metrics(p, probe_ev)
                                   for p in per_pass])
        for k in ("phys.build_ms.p50", "phys.build_ms.p90",
                  "phys.build.count", "phys.destroy_ms.p50",
                  "phys.destroy_ms.p90", "phys.destroy.count",
                  "virt.build_ms"):
            layer[k] = probe_layer[k]
        for b in binaries:
            layer[f"core.suite.{b}.wall_s"] = statistics.median(
                r[1][b] for r in rounds)
        covered = statistics.median(sum(r[1].values()) / r[0]
                                    for r in rounds)
        layer["share.core_pct"] = covered * 100.0
        layer["trace.unattributed_pct"] = (1.0 - covered) * 100.0
        # Per-binary times are taken the same way with tracing off.
        layer["trace.overhead_pct"] = 0.0
        layer["tlb.accesses"] = ev["accesses"]
        layer["tlb.walks"] = ev["walks"]
        layer["mm.faults"] = ev["faults"]
        layer["virt.guest_faults"] = ev["guest_faults"]
        layer["mm.reclaim.scans"] = ev["reclaim_scans"]
        res["layer"] = layer
    return res


def run_workload(workload, seed, seconds, trace, short=False):
    OUT.mkdir(parents=True, exist_ok=True)
    if workload == "repro_suite":
        res = repro_suite(seed, seconds, trace, short)
    else:
        res = in_process(workload, seed, seconds, trace, short)
    res["trace"] = trace
    units = per_layer_units()
    if trace:
        for m in MODEL:
            res["layer"][f"model.{m}"] = res["model"].get(m, 0.0)
        metrics = {k: {"value": res["layer"].get(k, 0.0), "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {k: {"value": res["e2e"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    res["metrics"] = metrics
    return res


# --- reporting ------------------------------------------------------------------

def report(res):
    f = res["facts"]
    print(f"perfbench: {res['workload']}  trace={res['trace']}")
    print("facts: " + "  ".join(f"{k}={v}" for k, v in f.items()))
    ev = res["events"]
    print("passes (host times; simulated events are exact and identical "
          "in every pass):")
    for p in res["passes"]:
        print(f"  pass {p['pass']:2d} {'traced  ' if p['traced'] else 'untraced'}"
              f"  wall {p['wall_s']:9.4f} s  setup {p['setup_s']:8.4f} s"
              f"  cells {p['cells']:3d}  failed {p['failed']}")
    wall = res["e2e"]["wall_s"]
    print("events per pass: " + "  ".join(f"{k}={v}" for k, v in ev.items()
                                           if v))
    for k, label in (("faults", "fault"), ("accesses", "access"),
                     ("walks", "walk"), ("reclaim_scans", "reclaim scan")):
        if ev.get(k):
            print(f"  host ns per {label} (whole pass): "
                  f"{wall * 1e9 / ev[k]:.1f}")
    attempted, failed = res["attempted"], res["failed"]
    print("end-to-end (tracing off; times are sums over cells of each "
          "cell's median across passes):")
    for k, u in END_TO_END.items():
        print(f"  {k:<22} {res['e2e'][k]:14.6g} {u}")
    print(f"  {'accesses_per_s':<22} {res['accesses_per_s']:14.6g} 1/s"
          "   (zero where a workload replays nothing)")
    print(f"  {'cell_fail_ratio':<22} {failed / attempted:14.6g} -"
          f"     ({failed} of {attempted} cells)")
    print("modelled (simulated, exact; model not validated against "
          "hardware):")
    for k in MODEL:
        v = res["model"].get(k)
        shown = f"{v:14.6g} %" if v else f"{'-':>14}  "
        print(f"  {k:<22} {shown}   paper: {PAPER[k]}")
    for name, ok in res["checks"]:
        if not ok:
            print(f"check FAILED: {name}")
    print(f"checks: {sum(ok for _, ok in res['checks'])} of "
          f"{len(res['checks'])} passed")
    if res["trace"]:
        print("per-layer (traced passes, median):")
        for k, v in res["metrics"].items():
            if v["value"]:
                print(f"  {k:<40} {v['value']:14.6g} {v['unit']}")


def result_line(res):
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    })


# --- self-test -------------------------------------------------------------------

def self_test():
    """Short mode of every workload: metric names/units, attribution, overhead."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(w, 1, 1.0, trace, short=True)
            want = spec["per_layer"] if trace else spec["end_to_end"]
            got = res["metrics"]
            for m in want:
                if m["name"] not in got:
                    problems.append(f"{w}: metric {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{w}: {m['name']} unit "
                                    f"{got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in want}
            if extra:
                problems.append(f"{w}: metrics not in BENCHMARK.json: "
                                f"{sorted(extra)}")
            if res["failed"]:
                problems.append(f"{w}: {res['failed']} failed cells")
            if trace:
                un = got["trace.unattributed_pct"]["value"]
                ovh = got["trace.overhead_pct"]["value"]
                print(f"self-test: {w}: unattributed {un:.2f}% of wall, "
                      f"tracing overhead {ovh:+.2f}%")
                if un > 10.0:
                    problems.append(f"{w}: {un:.1f}% of wall unattributed")
    for p in problems:
        print(f"self-test: FAIL: {p}")
    print("self-test: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the short mode of every workload and check "
                         "the metrics against BENCHMARK.json")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None or \
                args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        if args.seed < 0 or args.seconds <= 0:
            ap.error("--seed must be >= 0 and --seconds > 0")
        res = run_workload(args.workload, args.seed, args.seconds,
                           args.trace)
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
           ".json").write_text(json.dumps(res, indent=1, default=str))
    report(res)
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
