#!/usr/bin/env python3
"""sstbench: one command for sst's end-to-end and per-layer numbers.

Builds its own Release tree (build-bench/), generates each workload's
inputs from --seed, runs the workloads through the public `sst` CLI with
tracing off, checks every output, and prints each end-to-end metric as
`workload metric value unit`. --traced (or --trace 1) adds a separate
traced pass that produces the per-layer metrics. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics, or with --trace 1 the per-layer ones.

  python3 benchmark/run.py [--workload NAME]... [--seed K]
                           [--reps R | --seconds S] [--traced | --trace 0|1]
                           [--smoke] [--out FILE] [--keep]

The workloads, metrics and findings are described in benchmark/README.md;
metric names, units and regression bounds are declared in BENCHMARK.json,
and every run checks what it emits against that declaration. Exit codes:
0 all outputs correct, 2 some output check failed (the JSON line is still
printed), 1 the benchmark itself could not run.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
SST = BUILD / "sst" / "sst"
LAYERS = BUILD / "sstbench_layers"
DECLARATION = ROOT / "BENCHMARK.json"

WORKLOADS = ("suite", "replay", "oversub", "contention", "serve")
JOBS = min(4, len(os.sched_getaffinity(0)))
MIN_REPS = 3          # timed reps, even when --seconds runs out first
WARM_RERUNS = 8       # all-cache-hit reruns after each timed rep (setup_s)
SERVE_RESTARTS = 3    # journal restarts after each served rep (setup_s)
RECORDINGS = 2        # trace recordings per replay run (setup_s)
SOCKET = "sst.sock"   # relative to the work dir, so it fits in sun_path
PROC_TIMEOUT = 170    # seconds before a hung sst process is killed

# sweepCsvHeader() columns the checks and metrics read.
STATUS, TP, ERROR = 6, 8, 11

E2E_UNITS = {
    "wall_s": "s",
    "jobs_per_s": "jobs/s",
    "sim_mcycles_per_s": "Mcycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_mean_pct": "%",
}


# ---- inputs -------------------------------------------------------------

class Grid:
    """A profile x threads x cores sweep, as spec lines or sweep flags."""

    def __init__(self, profiles, threads, cores=()):
        self.profiles = profiles  # None selects the whole suite
        self.threads = threads
        self.cores = cores

    def spec_lines(self):
        lines = [f"threads = {', '.join(map(str, self.threads))}"]
        if self.profiles:
            lines.insert(0, f"profiles = {', '.join(self.profiles)}")
        if self.cores:
            lines.append(f"cores = {', '.join(map(str, self.cores))}")
        return lines

    def sweep_args(self):
        return ["--profiles", ",".join(self.profiles or ["all"]),
                "--threads", ",".join(map(str, self.threads))]


SUITE = Grid(None, [2, 4, 8, 16])
OVERSUB = Grid(["cholesky", "ferret_small", "radix", "canneal_small",
                "facesim_medium", "fluidanimate_medium"], [64], [8, 16, 32])
CONTENTION = {"thetas": ["0.0", "0.5", "0.9", "0.99"], "threads": [16, 32],
              "loop": 64000}
SMOKE_SUITE = Grid(["radix", "cholesky"], [2, 4])
SMOKE_OVERSUB = Grid(["radix", "cholesky"], [16], [4, 8])
SMOKE_CONTENTION = {"thetas": ["0.0", "0.9"], "threads": [16], "loop": 2000}

WDL_TEMPLATE = """\
wdl 1
workload "{name}"
seed {seed}
lock keys[64]

group clients threads={threads} private=128K {{
  loop {loop} {{
    txn txn_ops=16 rw_ratio=0.5 locks=keys zipf({theta}) compute=uniform(10, 30) memory=2
  }}
}}
"""


def suite_grid(smoke):
    return SMOKE_SUITE if smoke else SUITE


def write_inputs(name, work, seed, smoke):
    """Write NAME.spec (and any .wdl files) for @seed into @work."""
    lines = [f"# {name} workload, generated by benchmark/run.py"]
    if name == "oversub":
        lines += (SMOKE_OVERSUB if smoke else OVERSUB).spec_lines()
    elif name == "contention":
        c = SMOKE_CONTENTION if smoke else CONTENTION
        (work / "wdl").mkdir()
        files = []
        for threads in c["threads"]:
            for theta in c["thetas"]:
                stem = f"txn_z{theta}_t{threads}"
                (work / "wdl" / f"{stem}.wdl").write_text(WDL_TEMPLATE.format(
                    name=stem, seed=seed, threads=threads, loop=c["loop"],
                    theta=theta))
                files.append(f"wdl/{stem}.wdl")
        lines.append(f"workload-file = {', '.join(files)}")
    else:
        lines += suite_grid(smoke).spec_lines()
    lines.append(f"seed-offset = {seed}")
    if name == "replay":
        lines += ["frontend = trace", "trace-dir = traces"]
    spec = f"{name}.spec"
    (work / spec).write_text("\n".join(lines) + "\n")
    return spec


# ---- processes ----------------------------------------------------------

LIVE = set()  # started sst processes not yet reaped


def start(args, cwd, **kw):
    env = dict(os.environ, SST_LOG="info", TMPDIR=str(cwd))
    proc = subprocess.Popen([str(SST)] + args, cwd=cwd, env=env, text=True,
                            **kw)
    proc.timer = threading.Timer(PROC_TIMEOUT, proc.kill)
    proc.timer.daemon = True
    proc.timer.start()
    LIVE.add(proc)
    return proc


def reap(proc):
    """Wait for @proc; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.discard(proc)
    return proc.returncode, usage.ru_maxrss / 1024


def stop_all():
    for proc in list(LIVE):
        proc.kill()
        reap(proc)


Ran = namedtuple("Ran", "wall rss out code")


def sst(args, cwd):
    """Run one sst command to completion, timing it from spawn to exit."""
    t0 = time.perf_counter()
    proc = start(args, cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    out = proc.stdout.read()
    code, rss = reap(proc)
    return Ran(time.perf_counter() - t0, rss, out, code)


BATCH_RE = re.compile(
    r"batch: \d+ jobs, \d+ executed, \d+ cached, "
    r"\d+ deduped, \d+ failed, (?P<baselines>\d+) baselines, "
    r"(?P<replays>\d+) trace replays, (?P<recorded>\d+) traces recorded, "
    r"(?P<workers>\d+) workers")


def batch_stats(out):
    m = BATCH_RE.search(out)
    return {k: int(v) for k, v in m.groupdict().items()} if m else {}


# ---- one workload -------------------------------------------------------

def csv_rows(text):
    return text.splitlines()[1:]


def mismatches(expected, actual, status="ok"):
    """Rows of @actual that differ from @expected, except in a status
    column that must read @status."""
    bad = abs(len(expected) - len(actual))
    for e, a in zip(expected, actual):
        ef, af = e.split(","), a.split(",")
        if (len(af) <= STATUS or af[STATUS] != status
                or ef[:STATUS] + ef[STATUS + 1:] != af[:STATUS] + af[STATUS + 1:]):
            bad += 1
    return bad


class Workload:
    """The inputs, timed reps, set-up samples and checks of one workload."""

    def __init__(self, name, work, seed, smoke):
        self.name, self.work, self.seed, self.smoke = name, work, seed, smoke
        work.mkdir()
        self.spec = write_inputs(name, work, seed, smoke)
        self.reference = None  # rows every other output must reproduce
        self.walls, self.rss, self.setup = [], [], []
        self.attempted = self.failed = 0
        self.problems = []
        self.e2e, self.layers = {}, {}

    def check(self, ok, what, rows=1):
        if not ok:
            self.failed += max(rows, 1)
            self.problems.append(what)
            print(f"# {self.name}: check failed: {what}", file=sys.stderr)

    def check_rows(self, rows, what, status="ok"):
        bad = mismatches(self.reference, rows, status)
        self.check(bad == 0, f"{what}: {bad} rows differ", bad)

    def run_args(self, csv, cache=None):
        return (["run", "--spec", self.spec, "--jobs", str(JOBS),
                 "--csv", csv, "--quiet"]
                + (["--cache-dir", cache] if cache else ["--no-cache"]))

    def read(self, name):
        path = self.work / name
        return path.read_text() if path.exists() else ""

    # -- timed phase --

    def measure(self, reps, seconds):
        if self.name == "replay":
            self.record_traces()
        start = time.perf_counter()
        while True:
            n = len(self.walls)
            if reps is not None:
                if n >= reps:
                    break
            elif n >= MIN_REPS and time.perf_counter() - start >= seconds:
                break
            if self.name == "serve":
                self.serve_rep(n)
            else:
                self.cli_rep(n)

    def add_rep(self, wall, rss, code, csv, what):
        rows = csv_rows(csv)
        if self.reference is None:
            self.reference = rows
        jobs = len(self.reference)
        self.attempted += jobs
        self.walls.append(wall)
        self.rss.append(rss)
        self.check(code == 0, f"{what} exited {code}", jobs)
        not_ok = sum(1 for r in rows if r.split(",")[STATUS] != "ok")
        self.check(not_ok == 0, f"{what}: {not_ok} rows not ok", not_ok)
        self.check_rows(rows, f"{what} vs the first rep")

    def cli_rep(self, i):
        cache = None if self.name == "replay" else f"cache-{i}"
        r = sst(self.run_args("rep.csv", cache), self.work)
        self.add_rep(r.wall, r.rss, r.code, self.read("rep.csv"), f"rep {i}")
        if self.name == "replay":
            replays = batch_stats(r.out).get("replays")
            self.check(replays == len(self.reference),
                       f"rep {i} replayed {replays} of "
                       f"{len(self.reference)} jobs from traces")
            return
        # Set-up: rerun the campaign on the warm cache — process start,
        # spec parse, WDL compile, grid expansion, fingerprints and
        # cache reads, with no simulation.
        for _ in range(WARM_RERUNS):
            w = sst(self.run_args("warm.csv", cache), self.work)
            self.setup.append(w.wall)
            self.check(w.code == 0, f"warm rerun exited {w.code}")
            self.check_rows(csv_rows(self.read("warm.csv")),
                            "warm rerun vs cold", status="cached")
        shutil.rmtree(self.work / cache)

    def record_traces(self):
        """Set-up of replay: record the grid's traces (a live run)."""
        for _ in range(RECORDINGS):
            shutil.rmtree(self.work / "traces", ignore_errors=True)
            r = sst(["sweep", *suite_grid(self.smoke).sweep_args(),
                     "--seed-offset", str(self.seed), "--jobs", str(JOBS),
                     "--no-cache", "--record-dir", "traces",
                     "--csv", "record.csv", "--quiet"], self.work)
            self.setup.append(r.wall)
            rows = csv_rows(self.read("record.csv"))
            recorded = batch_stats(r.out).get("recorded")
            self.check(r.code == 0 and recorded == len(rows) > 0,
                       f"recording exited {r.code} after {recorded} traces")
            if self.reference is None:
                self.reference = rows  # replay must equal the live run
            else:
                self.check_rows(rows, "second recording vs first")

    # -- serving --

    def start_server(self, tag):
        server = start(["serve", "--socket", SOCKET, "--jobs", "0",
                        "--cache-dir", f"serve-cache-{tag}",
                        "--journal", f"serve-journal-{tag}"],
                       self.work, stdout=subprocess.PIPE)
        line = server.stdout.readline()
        if not line.startswith("serving on"):
            raise RuntimeError(f"sst serve did not start: {line!r}")
        return server

    def stop_server(self, server):
        drain = sst(["submit", "--connect", SOCKET, "--drain"], self.work)
        server.stdout.read()
        code, rss = reap(server)
        self.check(drain.code == 0 and code == 0,
                   f"drain exited {drain.code}, server {code}")
        return rss

    def serve_campaign(self, tag, traced=False):
        """Serve the spec as one campaign to external workers. The client
        submits once and streams the CSV (closed loop). Returns the wall
        time from server start to the last row, the peak RSS over every
        process, the client's exit code, the CSV, and the layer metrics
        when @traced."""
        t0 = time.perf_counter()
        server = self.start_server(tag)
        replay = ["--trace-dir", "traces"] if self.name == "replay" else []
        # As many workers as the CLI workloads' driver threads, so serve
        # and suite differ only in the cost of serving.
        workers = [start(["worker", "--connect", SOCKET, "--name", f"w{i}",
                          *replay, *(["--verbose"] if traced else [])],
                         self.work, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE if traced else
                         subprocess.DEVNULL)
                   for i in range(JOBS)]
        events, readers = [], []
        if traced:
            for w in workers:
                readers.append(threading.Thread(
                    target=lambda s: events.extend(
                        (time.perf_counter(), line) for line in s),
                    args=(w.stderr,)))
                readers[-1].start()
            submit = sst(["submit", "--connect", SOCKET, "--spec", self.spec],
                         self.work)
            client = sst(["submit", "--connect", SOCKET, "--results",
                          Path(self.spec).stem, "--csv", "served.csv"],
                         self.work)
            self.check(submit.code == 0, f"submit exited {submit.code}")
        else:
            client = sst(["submit", "--connect", SOCKET, "--spec", self.spec,
                          "--wait", "--csv", "served.csv"], self.work)
        wall = time.perf_counter() - t0
        scrape = sst(["metrics", SOCKET], self.work) if traced else None
        # Idle workers are stopped before the drain: a drained server
        # exits at once, and a worker polling after that would retry
        # the dead socket for seconds before giving up.
        rss = [client.rss]
        for w in workers:
            w.terminate()
            code, w_rss = reap(w)
            rss.append(w_rss)
            self.check(code == -signal.SIGTERM, f"worker exited {code}")
        rss.append(self.stop_server(server))
        for t in readers:
            t.join()
        layers = (serve_metrics(submit.wall, scrape.out, events)
                  if traced else None)
        return wall, max(rss), client.code, self.read("served.csv"), layers

    def serve_rep(self, i):
        wall, rss, code, csv, _ = self.serve_campaign(i)
        self.add_rep(wall, rss, code, csv, f"served rep {i}")
        # Set-up: restart the server on the settled journal until every
        # row has streamed back from the result cache.
        for _ in range(SERVE_RESTARTS):
            t0 = time.perf_counter()
            server = self.start_server(i)
            r = sst(["submit", "--connect", SOCKET, "--results",
                     Path(self.spec).stem, "--csv", "restart.csv"], self.work)
            self.setup.append(time.perf_counter() - t0)
            self.stop_server(server)
            self.check(r.code == 0, f"results after restart exited {r.code}")
            self.check_rows(csv_rows(self.read("restart.csv")),
                            "rows after restart vs served", status="cached")
        shutil.rmtree(self.work / f"serve-cache-{i}")

    # -- metrics --

    def end_to_end(self):
        rows = [r.split(",") for r in self.reference]
        wall = statistics.median(self.walls)
        tp = sum(int(r[TP]) for r in rows if r[STATUS] == "ok")
        errors = [abs(float(r[ERROR])) for r in rows if r[STATUS] == "ok"]
        values = {
            "wall_s": (wall, self.walls),
            "jobs_per_s": (len(rows) / wall, [len(rows) / w for w in self.walls]),
            "sim_mcycles_per_s": (tp / wall / 1e6,
                                  [tp / w / 1e6 for w in self.walls]),
            "setup_s": (statistics.median(self.setup), self.setup),
            "peak_rss_mb": (max(self.rss), self.rss),
            "err_mean_pct": (100 * statistics.fmean(errors) if errors
                             else math.nan, None),
        }
        self.e2e = {k: (v, E2E_UNITS[k], s) for k, (v, s) in values.items()}

    def traced_pass(self):
        """Per-layer numbers: driver spans from a traced rerun of the CLI,
        the layer harness, and a verbose served campaign."""
        layers = {}
        traced = sst(self.run_args("traced.csv", "traced-cache-0")
                     + ["--trace-out", "spans.json"], self.work)
        self.check(traced.code == 0, f"traced run exited {traced.code}")
        self.check_rows(csv_rows(self.read("traced.csv")),
                        "traced run vs timed")
        layers.update(span_metrics(self.work / "spans.json",
                                   batch_stats(traced.out)))
        # The untraced reference is the timed reps' median where they ran
        # this same command; replay's reps skip the cache and serve's are
        # served, so those time one untraced run here.
        untraced = self.walls
        if self.name in ("replay", "serve"):
            r = sst(self.run_args("untraced.csv", "traced-cache-1"),
                    self.work)
            self.check(r.code == 0, f"untraced run exited {r.code}")
            self.check_rows(csv_rows(self.read("untraced.csv")),
                            "untraced run vs timed")
            untraced = [r.wall]
        layers["telemetry.overhead_frac"] = (
            traced.wall / statistics.median(untraced) - 1, "fraction", False)

        harness = subprocess.run(
            [str(LAYERS), "--workload", self.name, "--work-dir",
             str(self.work)], capture_output=True, text=True,
            timeout=PROC_TIMEOUT, env=dict(os.environ, TMPDIR=str(self.work)))
        self.check(harness.returncode == 0,
                   f"layer harness failed: {harness.stderr.strip()}")
        rows = []
        for line in harness.stdout.splitlines():
            kind, _, rest = line.partition(" ")
            if kind == "row":
                rows.append(rest)
            elif kind == "metric":
                name, value, unit, exact = rest.split()
                layers[name] = (float(value), unit, exact == "exact")
        self.check_rows(rows, "layer harness rows vs CLI")

        _, _, code, csv, serve_layers = self.serve_campaign("traced", True)
        self.check(code == 0, f"traced served campaign exited {code}")
        self.check_rows(csv_rows(csv), "traced served campaign vs timed")
        layers.update(serve_layers)
        self.layers = {k: layers[k] for k in sorted(layers)}


def span_metrics(path, stats):
    """driver.* from the Chrome trace of a traced `sst run`."""
    durations = defaultdict(list)  # span name -> durations in us
    jobs, open_spans = [], defaultdict(list)
    for ev in json.loads(path.read_text())["traceEvents"]:
        if ev["ph"] == "B":
            open_spans[ev["tid"]].append(ev)
            continue
        begin = open_spans[ev["tid"]].pop()
        durations[ev["name"]].append(ev["ts"] - begin["ts"])
        if ev["name"] == "job":
            jobs.append((begin["ts"], ev["ts"]))
    job_us = durations["job"]
    batch_us = max(e for _, e in jobs) - min(b for b, _ in jobs)
    busy = sum(job_us) / (stats["workers"] * batch_us)
    return {
        "driver.jobs": (len(job_us), "count", True),
        "driver.baselines_computed": (stats["baselines"], "count", True),
        "driver.job_ms_p50": (statistics.median(job_us) / 1e3, "ms", False),
        "driver.job_ms_max": (max(job_us) / 1e3, "ms", False),
        "driver.validate_s": (sum(durations["validate"]) / 1e6, "s", False),
        "driver.baseline_s": (sum(durations["baseline"]) / 1e6, "s", False),
        "driver.simulate_s": (sum(durations["simulate"]) / 1e6, "s", False),
        "driver.cache_store_s": (sum(durations["cache-store"]) / 1e6, "s",
                                 False),
        "driver.worker_idle_frac": (1 - busy, "fraction", False),
    }


LEASED_RE = re.compile(r"\[worker\] (\S+): leased job (\d+)")
DONE_RE = re.compile(r"\[worker\] (\S+): job (\d+) -> ")


def serve_metrics(submit_s, exposition, events):
    """serve.* from the submit time, the `sst metrics` scrape and the
    timestamped lease/done lines of verbose workers."""
    families = defaultdict(float)
    for line in exposition.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            families[name.partition("{")[0]] += float(value)
    job_ms, gap_ms = [], []
    leased, done = {}, {}
    for t, line in sorted(events):
        if m := LEASED_RE.search(line):
            worker = m.group(1)
            if worker in done:
                gap_ms.append((t - done.pop(worker)) * 1e3)
            leased[worker] = t
        elif m := DONE_RE.search(line):
            worker = m.group(1)
            job_ms.append((t - leased.pop(worker)) * 1e3)
            done[worker] = t
    fsyncs = families["sst_serve_journal_fsync_seconds_count"]
    return {
        "serve.submit_ms": (submit_s * 1e3, "ms", False),
        "serve.leases": (families["sst_serve_worker_leases_total"], "count",
                         True),
        "serve.requeues": (families["sst_serve_queue_requeues"], "count",
                           True),
        "serve.fsync_ms_mean": (
            families["sst_serve_journal_fsync_seconds_sum"] * 1e3
            / max(fsyncs, 1), "ms", False),
        # NaN (no verbose lines parsed) fails the declaration check; a
        # worker that ran one job has no gap between leases.
        "serve.job_ms_p50": (statistics.median(job_ms or [math.nan]), "ms",
                             False),
        "serve.job_ms_max": (max(job_ms or [math.nan]), "ms", False),
        "serve.lease_gap_ms_p50": (statistics.median(gap_ms or [0.0]), "ms",
                                   False),
        "serve.lease_gap_ms_max": (max(gap_ms or [0.0]), "ms", False),
    }


# ---- build, host, declaration ------------------------------------------

def build():
    """Configure (once) and build build-bench/; exits 1 on failure."""
    BUILD.mkdir(exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [["cmake", "--build", str(BUILD), "-j",
              str(len(os.sched_getaffinity(0)))]]
    if not ((BUILD / "build.ninja").exists() or (BUILD / "Makefile").exists()):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release", *generator])
    for cmd in steps:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            sys.exit(f"sstbench: `{' '.join(cmd)}` failed")


def calibration_ns():
    """ns per iteration of a fixed Python loop (median of 5): a host-speed
    reference stored beside the metrics, never used to scale them."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i
        samples.append((time.perf_counter() - t0) * 1e9 / 200_000)
    return statistics.median(samples)


def host_info():
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler = "unknown"
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
            compiler = subprocess.run([path, "--version"], capture_output=True,
                                      text=True).stdout.partition("\n")[0]
    rev = "unknown"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "jobs": JOBS, "cpu_model": cpu,
            "compiler": compiler, "git_rev": rev}


def declaration_problems(declared, results, traced):
    """Differences between what ran and what BENCHMARK.json declares."""
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    problems = []
    workloads = {w["name"] for w in declared["workloads"]}
    if workloads != set(WORKLOADS):
        problems.append(f"declared workloads {sorted(workloads)}")
    kinds = [("end_to_end", "e2e")] + ([("per_layer", "layers")] if traced
                                       else [])
    for kind, attr in kinds:
        units = {m["name"]: m["unit"] for m in declared[kind]}
        for res in results:
            emitted = getattr(res, attr)
            for name in sorted(units.keys() - emitted.keys()):
                problems.append(f"{res.name}: {name} not emitted")
            for name, (value, unit, _) in emitted.items():
                if name not in units:
                    problems.append(f"{res.name}: {name} is not declared")
                elif not name_re.match(name) or unit != units[name]:
                    problems.append(f"{res.name}: {name} [{unit}] does not "
                                    f"match its declaration [{units[name]}]")
                if not math.isfinite(value):
                    problems.append(f"{res.name}: {name} is {value}")
    return problems


# ---- main ---------------------------------------------------------------

def main():
    declared = json.loads(DECLARATION.read_text())
    ap = argparse.ArgumentParser(
        description=__doc__.partition("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed: the seed-offset of every generated "
                         "spec and the seed of every generated .wdl")
    ap.add_argument("--reps", type=int,
                    help="timed reps per workload (default: as many as "
                         "--seconds allows, at least %d)" % MIN_REPS)
    ap.add_argument("--seconds", type=float,
                    default=declared["run_seconds"],
                    help="time budget of each workload's timed reps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add the traced pass; the JSON line then holds "
                         "the per-layer metrics")
    ap.add_argument("--traced", dest="trace", action="store_const", const=1,
                    help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="all workloads at tiny sizes, one rep, traced")
    ap.add_argument("--out", help="write every sample and the host info "
                                  "as JSON (input of compare.py)")
    ap.add_argument("--keep", action="store_true",
                    help="keep the work directory")
    args = ap.parse_args()
    if args.seed < 0 or (args.reps is not None and args.reps < 1):
        ap.error("--seed must be >= 0 and --reps >= 1")
    names = args.workload or list(WORKLOADS)
    if args.smoke:
        names, args.reps, args.trace = list(WORKLOADS), 1, 1

    build()
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
    results = []
    try:
        for name in names:
            w = Workload(name, work / name, args.seed, args.smoke)
            w.measure(args.reps, args.seconds)
            w.end_to_end()
            if args.trace:
                w.traced_pass()
            results.append(w)
            print(f"# {name}: {len(w.reference)} jobs, {len(w.walls)} timed "
                  f"reps, {len(w.setup)} set-up samples")
            for metrics in (w.e2e, w.layers):
                for metric, (value, unit, _) in metrics.items():
                    print(f"{name} {metric} {value!r} {unit}")
            sys.stdout.flush()
            if not args.keep:
                shutil.rmtree(w.work)
    finally:
        stop_all()
        if args.keep:
            print(f"# work directory kept: {work}", file=sys.stderr)
        else:
            shutil.rmtree(work, ignore_errors=True)

    # Live, replayed and served campaigns of one grid compute the same rows.
    by_name = {w.name: w for w in results}
    if "suite" in by_name:
        for other in ("replay", "serve"):
            if other in by_name:
                w = by_name[other]
                w.check_rows(by_name["suite"].reference, f"suite vs {other}")

    problems = declaration_problems(declared, results, args.trace)
    for p in problems:
        print(f"sstbench: {p}", file=sys.stderr)
    if problems:
        return 1

    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
            "smoke": args.smoke, "host": host_info(),
            "calibration_ns": calibration_ns(),
            "workloads": {w.name: {
                "attempted": w.attempted, "failed": w.failed,
                "problems": w.problems,
                "end_to_end": {k: {"value": v, "unit": u, "samples": s}
                               for k, (v, u, s) in w.e2e.items()},
                "per_layer": {k: {"value": v, "unit": u, "exact": x}
                              for k, (v, u, x) in w.layers.items()},
            } for w in results}}, indent=1) + "\n")

    metrics = {}
    for w in results:
        prefix = f"{w.name}." if len(results) > 1 else ""
        for metric, (value, unit, _) in (w.layers if args.trace
                                         else w.e2e).items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    failed = sum(w.failed for w in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(w.attempted for w in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
