#!/usr/bin/env python3
"""perfbench: the repository's benchmark.

Runs named workloads through the user's real entry point,
`sops-cli run <generated experiment.toml>`, checks every run's outputs, and
prints the end-to-end metrics. With `--trace 1` it instead replays the
workload in-process through `sops_engine`'s public API with spans around
each call (the `perfbench-trace` binary in `perfbench/tracer/`) and prints
the per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, one table

Run it from the repository root. It builds `sops-cli` and the tracer with
cargo into `$CARGO_TARGET_DIR` (default `.bench_build`) and keeps every run
artifact under `$CARGO_TARGET_DIR/perfbench/`. The last line of stdout is
one JSON object: `correct`, `attempted`, `failed` and `metrics`. The line
before it holds the provenance (commit or source digest, date,
available_parallelism, rustc version, seed) and the raw per-run values;
the same pair is appended to `$CARGO_TARGET_DIR/perfbench/ledger.jsonl`.

Closed loop, one client: the next `sops-cli` process starts only after the
previous one exits. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
# Fingerprints of the workload CSVs at DEFAULT_SEED (ARCHITECTURE.md
# invariant 1: the CSV bytes are a pure function of the experiment).
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
# Set-up invocations per run, after one untimed warm-up: at least
# SETUP_REPS, more while under SETUP_BUDGET_S (at most SETUP_MAX_REPS);
# `setup_s` is their median.
SETUP_REPS = 5
SETUP_MAX_REPS = 100
SETUP_BUDGET_S = 2.0
# Measured invocations per run, at least, whatever `--seconds` says.
MIN_INVOCATIONS = 3
# Untraced invocations of a `--trace 1` run (the tracer replays 3 times).
TRACE_REPS = 3
# A single sops-cli process is killed after this long.
PROCESS_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    toml: str  # experiment file; `{seed}` is the workload seed
    threads: int
    shards: int = 1
    checkpoint_every: int | None = None
    stop_after: int | None = None  # first pass stops here, second resumes
    first_hit: bool = False

    def experiment(self, seed: int) -> str:
        return self.toml.format(seed=seed)

    def flags(self) -> list[str]:
        """`sops-cli run` flags shared by every pass."""
        flags = ["--threads", str(self.threads)]
        if self.shards > 1:
            flags += ["--shards", str(self.shards)]
        return flags


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="compress-line",
            toml="""name = "compress-line"
seed = {seed}
ns = [60]
lambdas = [4]
shapes = ["line"]
algorithms = ["chain"]
reps = 128
steps = 1000000000
samples = 1
until_alpha = 1.5
""",
            threads=2,
            first_hit=True,
        ),
        Workload(
            name="kmc-equilibrium",
            toml="""name = "kmc-equilibrium"
seed = {seed}
ns = [10000]
lambdas = [6]
shapes = ["spiral"]
algorithms = ["chain-kmc"]
reps = 2
steps = 300000000
samples = 10
""",
            threads=2,
        ),
        Workload(
            name="sweep-durable",
            toml="""name = "sweep-durable"
seed = {seed}
ns = [60]
lambdas = [2, 4]
shapes = ["line", "random"]
reps = 48
samples = 10

[[grid]]
algorithms = ["chain", "chain-kmc"]
hamiltonians = ["edges", "alignment:3"]
steps = 40000

[[grid]]
algorithms = ["local"]
steps = 40
""",
            threads=2,
            checkpoint_every=20000,
            stop_after=400,
        ),
        Workload(
            name="local-large",
            toml="""name = "local-large"
seed = {seed}
ns = [100000]
lambdas = [4]
shapes = ["random"]
samples = 1

[[grid]]
algorithms = ["local"]
steps = 2

[[grid]]
algorithms = ["local-sharded"]
steps = 100
""",
            threads=1,
            shards=2,
        ),
    ]
}

# End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "accepted_per_s": "1/s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "lattice.pair_ring_mask_ns": "ns",
    "lattice.window25_ns": "ns",
    "system.check_move_ns": "ns",
    "system.move_particle_ns": "ns",
    "system.spiral_build_ms": "ms",
    "system.random_build_ms": "ms",
    "system.connected_build_ms": "ms",
    "system.trace_summary_us": "us",
    "chain.step_ns": "ns",
    "chain.acceptance": "ratio",
    "kmc.accepted_move_us": "us",
    "kmc.revalidation_fanout": "count",
    "kmc.dwell_mean": "count",
    "kmc.build_ms": "ms",
    "local.activation_ns": "ns",
    "local.move_frac": "ratio",
    "sharded.round_flat_ms": "ms",
    "sharded.round_pool2_ms": "ms",
    "sharded.pool2_over_flat": "ratio",
    "snapshot.chain.encode_us": "us",
    "snapshot.chain.restore_us": "us",
    "snapshot.kmc.encode_us": "us",
    "snapshot.kmc.restore_us": "us",
    "snapshot.local.encode_us": "us",
    "snapshot.local.restore_us": "us",
    "engine.parse_us": "us",
    "engine.open_ms": "ms",
    "engine.job_ms.p50": "ms",
    "engine.job_ms.p95": "ms",
    "engine.job_samples": "count",
    "engine.finish_ms": "ms",
    "engine.step_share": "ratio",
    "engine.setup_ms": "ms",
    "engine.checkpoint_write_ms": "ms",
    "engine.write_atomic_ms": "ms",
    "engine.checkpoint_share": "ratio",
    "engine.resume_ms": "ms",
    "engine.redo_frac": "ratio",
    "engine.pool_idle_frac": "ratio",
    "telemetry.metrics_json_us": "us",
    "cli.csv_finalize_ms": "ms",
    "trace.overhead_s": "s",
    "self.bench_ms": "ms",
    "self.engine_ms": "ms",
    "self.core_ms": "ms",
    "self.cli_ms": "ms",
    "self.telemetry_ms": "ms",
}

# Microbenchmark spans of the traced run: metric -> (span name, unit scale
# from nanoseconds per operation).
LAYER_SPANS = {
    "lattice.pair_ring_mask_ns": ("lattice.pair_ring_mask", 1),
    "lattice.window25_ns": ("lattice.window25", 1),
    "system.check_move_ns": ("system.check_move", 1),
    "system.move_particle_ns": ("system.move_particle", 1),
    "system.spiral_build_ms": ("system.spiral_build", 1e-6),
    "system.random_build_ms": ("system.random_build", 1e-6),
    "system.connected_build_ms": ("system.connected_build", 1e-6),
    "system.trace_summary_us": ("system.trace_summary", 1e-3),
    "chain.step_ns": ("chain.step", 1),
    "kmc.accepted_move_us": ("kmc.run", 1e-3),
    "kmc.build_ms": ("kmc.build", 1e-6),
    "local.activation_ns": ("local.activation", 1),
    "sharded.round_flat_ms": ("sharded.round_flat", 1e-6),
    "sharded.round_pool2_ms": ("sharded.round_pool2", 1e-6),
    "snapshot.chain.encode_us": ("snapshot.chain.encode", 1e-3),
    "snapshot.chain.restore_us": ("snapshot.chain.restore", 1e-3),
    "snapshot.kmc.encode_us": ("snapshot.kmc.encode", 1e-3),
    "snapshot.kmc.restore_us": ("snapshot.kmc.restore", 1e-3),
    "snapshot.local.encode_us": ("snapshot.local.encode", 1e-3),
    "snapshot.local.restore_us": ("snapshot.local.restore", 1e-3),
    "engine.write_atomic_ms": ("engine.write_atomic", 1e-6),
    "telemetry.metrics_json_us": ("telemetry.metrics_json", 1e-3),
}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- outputs


def fnv1a64(data: bytes) -> str:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"0x{h:016x}"


def csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8", errors="replace"))))


def check_csv(
    data: bytes | None, jobs: int, first_hit: bool, seed: int, fingerprint: str | None
) -> tuple[int, list[str]]:
    """Checks one run's CSV; returns (failed jobs, problems).

    Every job has a row, every row is connected with no violations, every
    job of a first-hit workload has a first hit, and at DEFAULT_SEED the
    bytes match the recorded fingerprint.
    """
    if data is None:
        return jobs, ["no CSV was written"]
    rows = csv_rows(data)
    problems = []
    if len(rows) != jobs:
        problems.append(f"{len(rows)} CSV rows for {jobs} jobs")
    bad = 0
    for row in rows:
        why = []
        if row.get("connected") != "yes":
            why.append("connected != yes")
        if row.get("violations") != "0":
            why.append("violations != 0")
        if first_hit and row.get("first hit", "-") in ("-", ""):
            why.append("no first hit")
        if why:
            bad += 1
            problems.append(f"job {row.get('job')}: {', '.join(why)}")
    if seed == DEFAULT_SEED and fingerprint is not None and fnv1a64(data) != fingerprint:
        problems.append(f"CSV fingerprint {fnv1a64(data)} != recorded {fingerprint}")
        return jobs, problems
    return (jobs if len(rows) != jobs else bad), problems


def work_counts(data: bytes, counters: list[dict[str, int]]) -> tuple[int, int]:
    """(steps, accepted moves) of one run.

    Steps are chain-family steps (CSV `work`) plus algorithm-A activations
    (`local*.activations`, summed over passes); accepted moves are the CSV
    `accepted` column plus completed local moves (`local*.contracted_forward`).
    """
    steps = accepted = 0
    for row in csv_rows(data):
        if row["algorithm"].startswith("chain"):
            steps += int(row["work"])
            if row["accepted"].isdigit():
                accepted += int(row["accepted"])
    for pass_counters in counters:
        for family in ("local", "local-sharded"):
            steps += pass_counters.get(f"{family}.activations", 0)
            accepted += pass_counters.get(f"{family}.contracted_forward", 0)
    return steps, accepted


def csv_work(data: bytes) -> int:
    return sum(int(row["work"]) for row in csv_rows(data))


# ---------------------------------------------------------------- processes


def spawn(args: list[str], cwd: Path, env: dict[str, str], log_path: Path) -> tuple[float, float, int]:
    """Runs one process to completion: (wall seconds, peak RSS MB, exit code).

    Peak RSS is the child's own `ru_maxrss`, read from outside via wait4.
    """
    with open(log_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def target_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target: Path) -> tuple[Path, Path]:
    """Builds sops-cli and the tracer from source; exits 1 on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    target.mkdir(parents=True, exist_ok=True)
    for args in (
        ["cargo", "build", "--release", "--offline", "-p", "sops-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(BENCH_DIR / "tracer" / "Cargo.toml")],
    ):
        done = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            log(f"build failed: {' '.join(args)}\n{done.stderr[-4000:]}")
            sys.exit(1)
    return target / "release" / "sops-cli", target / "release" / "perfbench-trace"


# ---------------------------------------------------------------- runs


@dataclass
class Invocation:
    wall: float
    rss_mb: float
    csv: bytes | None
    counters: list[dict[str, int]]  # metrics.json counters, one per pass
    problems: list[str]


class Runner:
    """Runs one workload's `sops-cli` invocations in a private directory."""

    def __init__(self, workload: Workload, seed: int, cli: Path, work: Path):
        self.w = workload
        self.seed = seed
        self.cli = cli
        self.work = work
        self.results = work / "results"
        self.toml = work / f"{workload.name}.toml"
        self.log = work / "stderr.log"
        self.env = dict(os.environ, SOPS_RESULTS_DIR=str(self.results))
        self.env.pop("SOPS_FAULTS", None)
        work.mkdir(parents=True, exist_ok=True)
        self.toml.write_text(workload.experiment(seed))
        self.log.write_bytes(b"")
        self.jobs = self.count_jobs()

    def count_jobs(self) -> int:
        done = subprocess.run(
            [str(self.cli), "run", str(self.toml), "--print-grid"],
            cwd=self.work, env=self.env, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            log(f"{self.w.name}: --print-grid failed: {done.stderr.strip()}")
            sys.exit(1)
        return sum(1 for line in done.stdout.splitlines() if line.startswith("job="))

    def clean(self) -> None:
        for path in (self.results, self.work / "ckpt"):
            shutil.rmtree(path, ignore_errors=True)
        # Flush the previous run's writes and deletions, so its writeback
        # does not land on the next run's fsyncs.
        os.sync()

    def invoke(self, setup: bool = False) -> Invocation:
        """One closed-loop run of the workload: every pass, back to back."""
        self.clean()
        base = [str(self.cli), "run", str(self.toml), "--quiet", "--metrics", *self.w.flags()]
        if setup:
            base += ["--override", "steps=1", "--override", "samples=1"]
        if self.w.checkpoint_every is not None:
            base += ["--checkpoint", str(self.work / "ckpt"),
                     "--checkpoint-every", str(self.w.checkpoint_every)]
        passes = [base]
        if self.w.stop_after is not None and not setup:
            passes = [base + ["--stop-after", str(self.w.stop_after)], base]
        wall = rss = 0.0
        counters, problems = [], []
        for args in passes:
            took, peak, code = spawn(args, self.work, self.env, self.log)
            wall += took
            rss = max(rss, peak)
            if code != 0:
                problems.append(f"sops-cli exited with {code} (see {self.log})")
            metrics_path = self.results / f"{self.w.name}.metrics.json"
            counters.append(read_counters(metrics_path))
            metrics_path.unlink(missing_ok=True)
        csv_path = self.results / f"{self.w.name}.csv"
        data = csv_path.read_bytes() if csv_path.exists() else None
        return Invocation(wall, rss, data, counters, problems)


def read_counters(path: Path) -> dict[str, int]:
    try:
        return json.loads(path.read_text()).get("counters", {})
    except (OSError, ValueError):
        return {}


def load_fingerprints() -> dict[str, str]:
    try:
        return json.loads(FINGERPRINTS.read_text())
    except (OSError, ValueError):
        return {}


class Tally:
    """Counts attempted and failed jobs over a run's invocations."""

    def __init__(self, runner: Runner, fingerprint: str | None):
        self.runner = runner
        self.fingerprint = fingerprint
        self.attempted = 0
        self.failed = 0
        self.reference: bytes | None = None

    def check(self, inv: Invocation, setup: bool = False) -> None:
        jobs = self.runner.jobs
        # A set-up run takes one step: no fingerprint, no first hit.
        bad, problems = check_csv(
            inv.csv, jobs, self.runner.w.first_hit and not setup, self.runner.seed,
            None if setup else self.fingerprint,
        )
        if not setup and inv.csv is not None:
            # Same input, same bytes: every measured invocation must agree.
            if self.reference is None:
                self.reference = inv.csv
            elif inv.csv != self.reference:
                problems.append("CSV bytes differ between invocations of the same input")
                bad = jobs
        if inv.problems:
            problems = inv.problems + problems
            bad = jobs
        self.attempted += jobs
        self.failed += bad
        for p in problems[:10]:
            log(f"{self.runner.w.name}: {p}")


def measure(workload: Workload, seed: int, seconds: float, cli: Path, work: Path) -> dict:
    runner = Runner(workload, seed, cli, work)
    tally = Tally(runner, load_fingerprints().get(workload.name))

    tally.check(runner.invoke(setup=True), setup=True)
    setup_walls = []
    start = time.perf_counter()
    while len(setup_walls) < SETUP_REPS or (
        len(setup_walls) < SETUP_MAX_REPS and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        inv = runner.invoke(setup=True)
        tally.check(inv, setup=True)
        setup_walls.append(inv.wall)

    invocations = []
    start = time.perf_counter()
    while len(invocations) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        inv = runner.invoke()
        tally.check(inv)
        invocations.append(inv)

    wall = statistics.median(i.wall for i in invocations)
    steps, accepted = work_counts(invocations[0].csv or b"", invocations[0].counters)
    if tally.reference is not None:
        log(f"{workload.name}: seed {seed}, CSV fnv1a64 {fnv1a64(tally.reference)}, "
            f"{len(invocations)} invocations")
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_walls),
        "steps_per_s": steps / wall,
        "accepted_per_s": accepted / wall,
        "jobs_per_s": runner.jobs / wall,
        "peak_rss_mb": statistics.median(i.rss_mb for i in invocations),
    }
    raw = {
        "wall_s": [i.wall for i in invocations],
        "setup_s": setup_walls,
        "peak_rss_mb": [i.rss_mb for i in invocations],
        "steps": steps,
        "accepted": accepted,
        "jobs": runner.jobs,
    }
    return {"metrics": metrics, "raw": raw, "attempted": tally.attempted, "failed": tally.failed}


# ---------------------------------------------------------------- traced run


def self_times(spans: list[dict]) -> dict[int, int]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children, overlapping children counted once."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = lo
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (hi - lo) - covered
    return out


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = min(max(1, math.ceil(q * len(ordered))), len(ordered))
    return ordered[rank - 1]


def per_op_median(spans: list[dict], name: str) -> float:
    """Median nanoseconds per operation over the spans named `name`."""
    per_op = [(s["end_ns"] - s["start_ns"]) / s["ops"] for s in spans
              if s["name"] == name and s["ops"] > 0]
    return statistics.median(per_op) if per_op else float("nan")


def layer_metrics(report: dict, untraced: list[Invocation], threads: int) -> dict[str, float]:
    spans = report["spans"]
    layers = [s for s in spans if s["run"].endswith("/layers")]
    replay_spans: dict[str, list[dict]] = {}
    for s in spans:
        if "/replay" in s["run"]:
            replay_spans.setdefault(s["run"], []).append(s)
    replays = [replay_spans[k] for k in sorted(replay_spans)]
    m: dict[str, float] = {}
    for metric, (name, scale) in LAYER_SPANS.items():
        m[metric] = per_op_median(layers, name) * scale
    m["sharded.pool2_over_flat"] = m["sharded.round_pool2_ms"] / m["sharded.round_flat_ms"]
    m.update(report["facts"])

    def durations(run_spans: list[dict], name: str) -> list[int]:
        return [s["end_ns"] - s["start_ns"] for s in run_spans if s["name"] == name]

    every = [s for run_spans in replays for s in run_spans]
    m["engine.parse_us"] = statistics.median(durations(every, "engine.parse")) / 1e3
    m["engine.open_ms"] = statistics.median(durations(every, "engine.open")) / 1e6
    m["engine.finish_ms"] = statistics.median(durations(every, "engine.finish")) / 1e6
    jobs_ms = [d / 1e6 for d in durations(every, "engine.job")]
    m["engine.job_ms.p50"] = quantile(jobs_ms, 0.50)
    m["engine.job_ms.p95"] = quantile(jobs_ms, 0.95)
    m["engine.job_samples"] = len(jobs_ms)

    csv_total = csv_work(untraced[0].csv or b"")
    per_replay: dict[str, list[float]] = {}
    pooled = {"setup": [0, 0], "checkpoint_write": [0, 0], "resume": [0, 0]}
    for run_spans, passes in zip(replays, report["replays"]):
        job_ns = sum(durations(run_spans, "engine.job"))
        pool_ns = sum(durations(run_spans, "bench.pool"))
        counters: dict[str, int] = {}
        for pass_counters in passes:
            for k, v in pass_counters.items():
                counters[k] = counters.get(k, 0) + v
        # `time.step.<kind>_ns` and `<kind>.work`, summed over kinds.
        step_ns = sum(v for k, v in counters.items() if re.fullmatch(r"time\.step\..+_ns", k))
        worked = sum(v for k, v in counters.items() if re.fullmatch(r"[a-z-]+\.work", k))
        for phase, acc in pooled.items():
            acc[0] += counters.get(f"phase.{phase}_ns", 0)
            acc[1] += counters.get(f"phase.{phase}_calls", 0)
        self_ns = self_times(run_spans)
        by_layer: dict[str, int] = {}
        for s in run_spans:
            layer = s["name"].split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0) + self_ns[s["id"]]
        derived = {
            "engine.step_share": step_ns / job_ns,
            "engine.checkpoint_share": counters.get("phase.checkpoint_write_ns", 0) / job_ns,
            "engine.redo_frac": (worked - csv_total) / csv_total,
            "engine.pool_idle_frac": 1 - job_ns / (threads * pool_ns),
            "self.bench_ms": by_layer.get("bench", 0) / 1e6,
            "self.engine_ms": (by_layer.get("engine", 0) - step_ns) / 1e6,
            "self.core_ms": step_ns / 1e6,
            "self.cli_ms": by_layer.get("cli", 0) / 1e6,
            "self.telemetry_ms": by_layer.get("telemetry", 0) / 1e6,
            "replay_s": sum(durations(run_spans, "bench.replay")) / 1e9,
        }
        for k, v in derived.items():
            per_replay.setdefault(k, []).append(v)
    for k, values in per_replay.items():
        m[k] = statistics.median(values)
    # Per-call phase costs, pooled over the replays and the durability
    # probe, which checkpoints and resumes the first job on every workload.
    for phase, (ns, calls) in pooled.items():
        ns += report["durability"].get(f"phase.{phase}_ns", 0)
        calls += report["durability"].get(f"phase.{phase}_calls", 0)
        m[f"engine.{phase}_ms"] = ns / calls / 1e6 if calls else 0.0
    m["cli.csv_finalize_ms"] = statistics.median(
        i.counters[-1].get("phase.csv_finalize_ns", 0) for i in untraced) / 1e6
    m["trace.overhead_s"] = m.pop("replay_s") - statistics.median(i.wall for i in untraced)
    return m


def trace(workload: Workload, seed: int, cli: Path, tracer: Path, work: Path) -> dict:
    runner = Runner(workload, seed, cli, work)
    tally = Tally(runner, load_fingerprints().get(workload.name))
    untraced = []
    for _ in range(TRACE_REPS):
        inv = runner.invoke()
        tally.check(inv)
        untraced.append(inv)

    runner.clean()
    report_path = work / "trace.json"
    args = [str(tracer), "--toml", str(runner.toml), "--out", workload.name,
            "--work", str(work), "--report", str(report_path),
            "--run-id", f"{workload.name}/{seed}",
            "--threads", str(workload.threads), "--shards", str(workload.shards)]
    if workload.checkpoint_every is not None:
        args += ["--checkpoint-every", str(workload.checkpoint_every)]
    if workload.stop_after is not None:
        args += ["--stop-after", str(workload.stop_after)]
    _, _, code = spawn(args, work, runner.env, runner.log)
    problems = [] if code == 0 else [f"perfbench-trace exited with {code} (see {runner.log})"]
    csv_path = runner.results / f"{workload.name}.csv"
    traced = Invocation(0.0, 0.0, csv_path.read_bytes() if csv_path.exists() else None,
                        [], problems)
    # The in-process replay must write the CLI's bytes.
    tally.check(traced)
    if code != 0:
        return {"metrics": {}, "raw": {}, "attempted": tally.attempted, "failed": tally.failed}
    report = json.loads(report_path.read_text())
    metrics = layer_metrics(report, untraced, workload.threads)
    raw = {"untraced_wall_s": [i.wall for i in untraced],
           "available_parallelism": report["available_parallelism"]}
    return {"metrics": metrics, "raw": raw, "attempted": tally.attempted, "failed": tally.failed}


# ---------------------------------------------------------------- provenance


def source_digest() -> str:
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        if path.exists():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def command_output(args: list[str]) -> str | None:
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args: argparse.Namespace, tracer: Path) -> dict:
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "available_parallelism": int(command_output([str(tracer), "--parallelism"]) or 0),
        "rustc": command_output(["rustc", "--version"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------- main


def run_workload(name: str, args: argparse.Namespace, cli: Path, tracer: Path, target: Path) -> dict:
    workload = WORKLOADS[name]
    work = target / "perfbench" / name
    if args.trace:
        return trace(workload, args.seed, cli, tracer, work)
    return measure(workload, args.seed, args.seconds, cli, work)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    target = target_dir()
    cli, tracer = build(target)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, cli, tracer, target) for name in names}
    units = PER_LAYER if args.trace else END_TO_END
    if args.workload == "all":
        print_table(results, units)

    # Every metric in the declared order, prefixed by its workload under
    # `all`; a missing or non-finite value makes the run incorrect rather
    # than the JSON invalid.
    metrics = {}
    finite = True
    for name in names:
        for key, unit in units.items():
            value = results[name]["metrics"].get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                finite, value = False, 0.0
            label = f"{name}.{key}" if args.workload == "all" else key
            metrics[label] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    ledger = {"provenance": provenance(args, tracer),
              "raw": {n: r["raw"] for n, r in results.items()}}
    line = json.dumps(ledger, sort_keys=True)
    print(line)
    with open(target / "perfbench" / "ledger.jsonl", "a") as f:
        f.write(line + "\n")
    print(json.dumps({"correct": failed == 0 and finite, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_table(results: dict[str, dict], units: dict[str, str]) -> None:
    names = list(results)
    print(f"{'metric':28} {'unit':6} " + " ".join(f"{n:>16}" for n in names))
    for metric, unit in units.items():
        cells = [results[n]["metrics"].get(metric, float("nan")) for n in names]
        print(f"{metric:28} {unit:6} " + " ".join(f"{c:16.6g}" for c in cells))
    fracs = [results[n]["failed"] / max(results[n]["attempted"], 1) for n in names]
    print(f"{'failed_frac':28} {'ratio':6} " + " ".join(f"{f:16.6g}" for f in fracs))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
