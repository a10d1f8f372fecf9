#!/usr/bin/env python3
"""End-to-end benchmark of the `repro` pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 50 --trace 0

The script builds `repro` from the checkout's sources (into
`$CARGO_TARGET_DIR`, default `.bench_build`), then for one workload:

1. set-up: runs the workload's command SETUP_REPS times, each in a fresh
   empty working directory, so any state a run leaves behind is paid for
   here. Those runs must agree byte for byte; their report is the
   reference. `setup_s` is their median wall.
2. measurement: re-runs the same command in one working directory for
   `--seconds` seconds (a closed loop: the next run starts when the last
   one exits). Every run's report must equal the reference.
3. cross-checks, one more run each: the single-threaded report must equal
   the reference (thread count never changes report bytes), and on
   `batch` the streamed build's report must equal the batch report.

With `--trace 0` it reports the whole-run wall time and peak RSS a user of
`repro` sees. With `--trace 1` the measured runs also write the program's
span tree (`--trace`) and metrics snapshot (`--metrics json`), and the
script reports a per-layer ledger: each top-level layer's wall (the union
of its spans), the part of the run no span covers, per-pass and per-stage
busy time, and the work counters those layers record. The script's own
spans (set-up, each run, checks) are written with the program's spans
nested under them to `.perfbench/<workload>-seed<N>-trace.json`.

The last line of stdout is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
Progress and the ledger table go to stderr.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

# Scale 1:50 is the pipeline's trajectory point: 56k registrations, one to
# two seconds per run, with every layer (generation, columns, scan,
# surveys, reports) a visible share of the wall.
SCALE = "50"
# Timed runs pin the worker count so a run splits its work the same way
# on any machine. Two workers also spread a run over both cores of a
# two-core host, so one slowed core delays it less.
THREADS = "2"
SETUP_REPS = 3
# `repro`'s own default seed; the benchmark seed offsets it.
BASE_SEED = 0x1DAE2018
# One invocation may not outlive this; the whole script must end in 180 s.
RUN_TIMEOUT_S = 60.0
TOTAL_BUDGET_S = 170.0

# Both workloads run the full report (`all`) at SCALE and must exit 0.
# There are two because on a shared host the machine's speed drifts by
# tens of percent over minutes: only runs close to a minute long give
# medians that repeat, and repeated measurements of more workloads at
# that length would take too long.
WORKLOADS = {
    # Materialized corpus: generation, column build, fused scan, the crawl
    # and WHOIS surveys and the report generators. No shard regeneration
    # and no epochs.
    "batch": [],
    # The streamed build (64-record shards regenerated on demand from the
    # keyed RNG) followed by two simulated zone-diff days at 2% churn:
    # resident partials, re-fold of dirty shards only, and the program's
    # own shadow rebuild that asserts each epoch's report bytes. Epoch
    # mode skips the surveys, which `batch` runs.
    "epochs": ["--stream", "--epochs", "2", "--churn-per-mille", "20", "--shard-size", "64"],
}

# Headings every full report carries (paper anchors) — a cheap guard
# against a run that exits cleanly with a truncated report.
REQUIRED_HEADINGS = ["## Table I ", "## Table XIV ", "## Figure 7 ", "## Figure 8 "]

EPOCH_LINE = re.compile(
    r"epochs=(\d+) shards=(\d+) refolded=(\d+) incremental_ns=(\d+) rebuild_ns=(\d+)"
)

# Top-level layers of the span tree, matched by span-name prefix. Their
# union plus `layer.unattributed_ms` is the whole run.
LAYERS = [
    ("gen", "build.ecosystem"),
    ("columns", "analyze.columns"),
    ("scan", "analyze.scan"),
    ("epoch", "analyze.epoch"),
    ("whois", "whois.survey"),
    ("crawl", "crawl.survey"),
    ("report", "report."),
]

# Busy time (summed span durations) of single stages, read from the
# metrics snapshot: the hot stages inside each layer.
STAGES = [
    "datagen.ordinary_registrations",
    "datagen.attack_injection",
    "datagen.non_idn_sample",
    "datagen.whois",
    "datagen.pdns_traffic",
    "datagen.zones",
    "datagen.stream.plan",
    "datagen.stream.artifacts",
    "analyze.pass.homograph",
    "analyze.pass.semantic1",
    "analyze.pass.semantic2",
    "analyze.pass.activity",
    "analyze.pass.language",
    "analyze.pass.tld",
    "analyze.pass.fig6",
    "analyze.pass.table3",
    "analyze.pass.content",
    "crawler.crawl",
    "crawler.resolve",
    "report.ext_multichar",
    "report.fig7",
    "report.fig6",
    "report.table3",
    "report.table4",
    "report.ext_squatting",
]

# Work done per layer: scan candidates, WHOIS lookups, crawler queries
# (the sum of `crawler.outcome.*`) and the epoch engine's shard tally.
COUNTERS = [
    "homograph.candidates",
    "whois.crawl.attempted",
    "epoch.shards.dirty",
    "epoch.shards.refolded",
]

GAUGES = ["datagen.peak_resident_records", "epoch.partials.resident"]

# (name, unit, better) of every `--trace 1` metric, in ledger order; the
# `per_layer` list of BENCHMARK.json.
PER_LAYER = (
    [(f"layer.{layer}_ms", "ms", "lower") for layer, _ in LAYERS]
    + [
        ("layer.other_ms", "ms", "lower"),
        ("layer.unattributed_ms", "ms", "lower"),
        ("ledger.coverage_pct", "%", "higher"),
        ("run.traced_wall_ms", "ms", "lower"),
    ]
    + [(f"{name}_ms", "ms", "lower") for name in STAGES]
    + [(name, "count", "lower") for name in COUNTERS + GAUGES]
    + [
        ("crawler.queries", "count", "lower"),
        ("epoch.incremental_ms", "ms", "lower"),
        ("epoch.rebuild_ms", "ms", "lower"),
        ("epoch.speedup", "ratio", "higher"),
    ]
)


class Spans:
    """The benchmark's own span log, written out as Chrome trace JSON."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.events = []

    def now_us(self):
        return (time.perf_counter() - self.origin) * 1e6

    def add(self, name, start_us, end_us, depth, args=None):
        self.events.append(
            {
                "name": name,
                "cat": "perfbench",
                "ph": "X",
                "ts": start_us,
                "dur": end_us - start_us,
                "pid": 1,
                "tid": 1,
                "args": dict(args or {}, depth=depth),
            }
        )

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events}, f)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root):
    """Builds `repro` from the checkout; returns its absolute path or None."""
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates", "bench")
    ):
        log("perfbench: no Cargo workspace with crates/bench here; nothing to build")
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "-p", "idnre-bench", "--bin", "repro"]
    if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
        log("perfbench: cargo build failed")
        return None
    binary = os.path.join(root, target, "release", "repro")
    return binary if os.path.isfile(binary) else None


class Runner:
    """Runs `repro` and keeps the attempted/failed tally."""

    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def invoke(self, argv, workdir, out_path):
        """One `repro` run: (wall seconds, peak RSS KiB, exit code, stderr)."""
        timeout = min(RUN_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            raise TimeoutError("benchmark time budget exhausted")
        err_path = os.path.join(workdir, "stderr.txt")
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([self.binary] + argv, cwd=workdir, stdout=out, stderr=err)
            # Kill by pid rather than `proc.kill()`, which would poll (and
            # could reap) the child underneath `wait4`.
            timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        return wall, usage.ru_maxrss, proc.returncode, stderr


def digest(path):
    """SHA-256 of a report file, or None when the run wrote none."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def report_problems(path, repro_seed):
    """Structural checks on one report; returns a list of problems."""
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    problems = [f"missing heading {h!r}" for h in REQUIRED_HEADINGS if h not in text]
    if f"seed {repro_seed:#x}." not in text:
        problems.append(f"report does not name seed {repro_seed:#x}")
    return problems


def run_problems(workload, rc, stderr):
    """Exit-code and stderr checks for one run; returns a list of problems."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if workload == "epochs":
        m = EPOCH_LINE.search(stderr)
        if not m:
            problems.append("no epoch summary line")
        else:
            epochs, shards, refolded = (int(g) for g in m.groups()[:3])
            # Re-folding every shard every epoch would mean nothing was
            # incremental; the program itself asserts report equality.
            if not 0 < refolded < shards * epochs:
                problems.append(f"refolded {refolded} of {shards}x{epochs} shard-epochs")
    return problems


def union_us(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def ledger(trace_path, metrics_path, stderr, wall_ms):
    """Per-layer metrics of one traced run."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    top = [(e["name"], e["ts"], e["ts"] + e["dur"]) for e in events if e["args"]["depth"] == 1]
    row = {}
    claimed = set()
    for layer, prefix in LAYERS:
        spans = [(s, t) for name, s, t in top if name.startswith(prefix)]
        claimed.update(name for name, _, _ in top if name.startswith(prefix))
        row[f"layer.{layer}_ms"] = union_us(spans) / 1e3
    row["layer.other_ms"] = union_us([(s, t) for n, s, t in top if n not in claimed]) / 1e3
    covered_ms = union_us([(s, t) for _, s, t in top]) / 1e3
    row["layer.unattributed_ms"] = max(wall_ms - covered_ms, 0.0)
    row["ledger.coverage_pct"] = 100.0 * covered_ms / wall_ms
    row["run.traced_wall_ms"] = wall_ms

    with open(metrics_path) as f:
        snapshot = json.load(f)
    stages = {s["name"]: s for s in snapshot["stages"]}
    counters = {c["name"]: c["value"] for c in snapshot["counters"]}
    gauges = {g["name"]: g["peak"] for g in snapshot["gauges"]}
    for name in STAGES:
        row[f"{name}_ms"] = stages[name]["wall_ns"] / 1e6 if name in stages else 0.0
    for name in COUNTERS:
        row[name] = float(counters.get(name, 0))
    for name in GAUGES:
        row[name] = float(gauges.get(name, 0))
    row["crawler.queries"] = float(
        sum(v for k, v in counters.items() if k.startswith("crawler.outcome."))
    )

    m = EPOCH_LINE.search(stderr)
    incremental_ns, rebuild_ns = (int(m.group(4)), int(m.group(5))) if m else (0, 0)
    row["epoch.incremental_ms"] = incremental_ns / 1e6
    row["epoch.rebuild_ms"] = rebuild_ns / 1e6
    row["epoch.speedup"] = rebuild_ns / incremental_ns if incremental_ns else 0.0
    return row, events


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 1
    runner = Runner(binary, time.perf_counter() + TOTAL_BUDGET_S)
    spans = Spans()

    repro_seed = BASE_SEED + opts.seed
    base_argv = ["--scale", SCALE, "--seed", str(repro_seed)] + WORKLOADS[opts.workload]
    scratch = os.path.join(root, ".perfbench", f"{opts.workload}-seed{opts.seed}")
    shutil.rmtree(scratch, ignore_errors=True)
    problems = []

    def note(where, found):
        if found:
            runner.failed += 1
            problems.extend(f"{where}: {p}" for p in found)

    # Set-up: the reference report, from a fresh directory each time.
    setup_walls, reference = [], None
    t_setup = spans.now_us()
    for i in range(SETUP_REPS):
        workdir = os.path.join(scratch, f"setup{i}")
        os.makedirs(workdir)
        out = os.path.join(workdir, "report.md")
        t0 = spans.now_us()
        wall, _, rc, stderr = runner.invoke(base_argv + ["--threads", THREADS, "all"], workdir, out)
        spans.add(f"setup#{i}", t0, spans.now_us(), 1, {"exit": rc})
        setup_walls.append(wall)
        found = run_problems(opts.workload, rc, stderr) + report_problems(out, repro_seed)
        if reference is None:
            reference = digest(out)
        elif digest(out) != reference:
            found.append("set-up reports differ between identical runs")
        note(f"setup#{i}", found)
    spans.add("setup", t_setup, spans.now_us(), 0)

    # Measurement: a closed loop of runs for --seconds.
    workdir = os.path.join(scratch, "measure")
    os.makedirs(workdir)
    out = os.path.join(workdir, "report.md")
    argv = base_argv + ["--threads", THREADS]
    stdout = out
    if opts.trace:
        argv += ["--metrics", "json", "--trace", "trace.json", "--write", "report.md"]
        stdout = os.path.join(workdir, "stdout.txt")
    argv.append("all")
    walls, rss, rows = [], [], []
    t_measure = spans.now_us()
    end = time.perf_counter() + opts.seconds
    while not walls or time.perf_counter() < end:
        t0 = spans.now_us()
        if os.path.exists(out):
            os.remove(out)
        wall, peak_kib, rc, stderr = runner.invoke(argv, workdir, stdout)
        walls.append(wall)
        rss.append(peak_kib / 1024.0)
        found = run_problems(opts.workload, rc, stderr)
        if digest(out) != reference:
            found.append("report differs from the set-up reference")
        note(f"run#{len(walls)}", found)
        spans.add(f"run#{len(walls)}", t0, spans.now_us(), 1, {"exit": rc})
        if opts.trace and not found:
            row, events = ledger(
                os.path.join(workdir, "trace.json"),
                os.path.join(workdir, "report.md.metrics.json"),
                stderr,
                wall * 1e3,
            )
            rows.append(row)
            # Nest the program's spans under this run's span.
            for e in events:
                spans.add(e["name"], t0 + e["ts"], t0 + e["ts"] + e["dur"], e["args"]["depth"] + 2)
    spans.add("measure", t_measure, spans.now_us(), 0, {"runs": len(walls)})

    # Cross-checks: (name, argv, workload whose run checks apply).
    checks = [("threads1", base_argv + ["--threads", "1", "all"], opts.workload)]
    if opts.workload == "batch":
        checks.append(("streamed", base_argv + ["--stream", "--threads", THREADS, "all"], "batch"))
    for name, check_argv, contract in checks:
        t0 = spans.now_us()
        workdir = os.path.join(scratch, f"check-{name}")
        os.makedirs(workdir)
        out = os.path.join(workdir, "report.md")
        _, _, rc, stderr = runner.invoke(check_argv, workdir, out)
        found = run_problems(contract, rc, stderr)
        if digest(out) != reference:
            found.append(f"{name} report differs from the set-up reference")
        note(f"check.{name}", found)
        spans.add(f"check.{name}", t0, spans.now_us(), 0)

    for p in problems:
        log(f"perfbench: FAIL {p}")
    if opts.trace:
        metrics = {}
        for name, unit, _ in PER_LAYER:
            values = [r[name] for r in rows]
            metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        print_ledger(opts.workload, metrics, len(rows))
        spans.write(scratch + "-trace.json")
    else:
        metrics = {
            "run_wall_ms": {"value": statistics.median(walls) * 1e3, "unit": "ms"},
            "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        }
        log(
            f"perfbench: {opts.workload} seed {opts.seed}: {len(walls)} runs, "
            f"median {metrics['run_wall_ms']['value']:.1f} ms "
            f"(min {min(walls) * 1e3:.1f}, max {max(walls) * 1e3:.1f}), "
            f"peak RSS {metrics['peak_rss_mib']['value']:.1f} MiB, "
            f"set-up {metrics['setup_s']['value']:.3f} s; walls ms "
            + " ".join(f"{w * 1e3:.0f}" for w in walls)
        )
    shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def print_ledger(workload, metrics, samples):
    wall = metrics["run.traced_wall_ms"]["value"]
    log(f"perfbench: {workload} ledger (median of {samples} traced runs)")
    for layer, _ in LAYERS + [("other", None), ("unattributed", None)]:
        ms = metrics[f"layer.{layer}_ms"]["value"]
        if ms:
            log(f"  {layer:<14} {ms:10.1f} ms  {100 * ms / wall:5.1f}%")
    log(f"  {'run':<14} {wall:10.1f} ms  coverage {metrics['ledger.coverage_pct']['value']:.1f}%")


if __name__ == "__main__":
    sys.exit(main())
