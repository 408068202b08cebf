"""End-to-end benchmark of the broadcast system: station, fleet, control.

    python3 perfbench/run.py --workload station --seed 1 --seconds 25 --trace 0

Each measured job is a fresh interpreter (``job.py``) that builds its
inputs from a seed, serves them through the public entry points and
writes the manifest, because a user of the command pays that whole path
on every invocation.  A run serves each of a few sub-seeds derived from
``--seed`` once, then cycles through them again while another job fits
in ``--seconds``.  Times are medians per sub-seed, averaged over the
sub-seeds so that one unlucky input does not move the figure.  Jobs of
one sub-seed must write byte-identical manifests.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
first sub-seed once untraced and once with a span around each layer's
public functions (``tracing.py``), and prints per-layer self times,
counts and ratios; the difference between the two jobs is the tracing
overhead.  Every job's outputs are checked; a failed check counts in
``failed`` and makes the command exit with status 1.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS  # this script's directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"

#: Spans kept for counts and skew only; their self time is ``other_s``.
COUNTED_ONLY = ("federation.shard", "engine.cache.get")
#: Per-layer times that are not a share of the traced job.
DIAGNOSTICS = ("bench.traced_e2e_s", "bench.tracing_overhead_s",
               "host.calibration_s")

#: Sub-seeds per run: the input mix a run averages over.  Station and
#: control time follow the number of full re-plans the mutations trigger,
#: which varies from seed to seed, so a run averages several inputs.
SUB_SEEDS = {"station": 4, "fleet": 3, "control": 4}
SETUP_PROBES = 3
JOB_TIMEOUT_S = 120.0
#: No job starts that should end later than this after the first one
#: began, so that a run on a slow host still ends within 180 s.
JOBS_LIMIT_S = 140.0

CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class JobFailed(Exception):
    pass


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the host's speed now."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def spawn(args: list[str]) -> tuple[float, dict]:
    """Run ``job.py`` in a fresh interpreter; returns (spawn stamp, result)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    started = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(JOB), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise JobFailed(f"job {args} timed out after {error.timeout} s")
    if done.returncode != 0:
        tail = (done.stderr or done.stdout).strip().splitlines()[-3:]
        raise JobFailed(f"job {args} exited {done.returncode}: {tail}")
    try:
        return started, json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise JobFailed(f"job {args} printed no result")


def measure(started: float, job: dict) -> dict:
    """Times of one job; ``gc.collect()`` pauses before phases left out."""
    stamps = job["stamps"]
    pauses = job["gc_pause_s"]
    return {
        "setup_s": stamps["ready"] - started,
        "e2e_s": stamps["done"] - started - sum(pauses),
        "serve_s": stamps["done"] - stamps["inputs"] - sum(pauses[1:]),
    }


def sub_seed(seed: int, k: int) -> int:
    """The generator seed of a run's ``k``-th input; the first is ``seed``."""
    return seed + 100_003 * k


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def failed_checks(job: dict) -> list[str]:
    return [name for name, ok in job["checks"].items() if not ok]


def run_jobs(workload, seed, seconds, work, log):
    """Every sub-seed once, then more cycles while they fit ``seconds``."""
    subs = [sub_seed(seed, k) for k in range(SUB_SEEDS[workload])]
    jobs: list[tuple[int, float, dict]] = []
    durations: list[float] = []
    failures: list[str] = []
    began = time.monotonic()
    index = 0
    while True:
        if durations:
            ends = time.monotonic() - began + statistics.median(durations)
            if ends > JOBS_LIMIT_S or (index >= len(subs) and ends > seconds):
                break
        sub = subs[index % len(subs)]
        out = work / f"job{index}"
        index += 1
        before = time.monotonic()
        # The journal recovery check replays a whole session: once a run.
        recovery = ["--check-recovery"] if index == 1 else []
        try:
            started, job = spawn(
                ["--workload", workload, "--seed", str(sub), "--out", str(out),
                 *recovery]
            )
        except JobFailed as error:
            failures.append(str(error))
            continue
        finally:
            durations.append(time.monotonic() - before)
        bad = failed_checks(job)
        if bad:
            failures.append(f"sub-seed {sub}: failed checks {bad}")
        jobs.append((sub, started, job))
        times = measure(started, job)
        log(
            f"  job {index:2d} sub-seed {sub}: e2e {times['e2e_s']:.3f} s, "
            f"serve {times['serve_s']:.3f} s, "
            f"rss {job['peak_rss_mb']:.1f} MB, "
            f"manifest {job['manifest_digest']}, "
            f"columns {job['columns_digest']}"
        )
    return jobs, failures, index


def identity_failures(jobs) -> list[str]:
    """Jobs of one sub-seed must agree byte for byte."""
    failures = []
    by_sub: dict[int, list[dict]] = {}
    for sub, _, job in jobs:
        by_sub.setdefault(sub, []).append(job)
    for sub, group in by_sub.items():
        for key in ("manifest_digest", "columns_digest"):
            if len({job[key] for job in group}) != 1:
                failures.append(f"sub-seed {sub}: {key} differs across jobs")
    return failures


def end_to_end(jobs, setup_samples) -> dict:
    by_sub: dict[int, list[tuple[float, dict]]] = {}
    for sub, started, job in jobs:
        by_sub.setdefault(sub, []).append((started, job))
    rows = []
    for group in by_sub.values():
        times = [measure(started, job) for started, job in group]
        facts = group[0][1]["facts"]
        rows.append({
            "e2e_s": statistics.median(t["e2e_s"] for t in times),
            "serve_s": statistics.median(t["serve_s"] for t in times),
            "peak_rss_mb": statistics.median(
                job["peak_rss_mb"] for _, job in group
            ),
            "listeners": facts["listeners"],
            "misses": facts["misses"],
        })
    listeners = sum(row["listeners"] for row in rows)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "e2e_s": (statistics.fmean(r["e2e_s"] for r in rows), "s"),
        "serve_s": (statistics.fmean(r["serve_s"] for r in rows), "s"),
        "listeners_per_s": (
            listeners / sum(r["e2e_s"] for r in rows), "1/s"
        ),
        "peak_rss_mb": (
            statistics.fmean(r["peak_rss_mb"] for r in rows), "MB"
        ),
        "on_time_rate": (
            1.0 - sum(r["misses"] for r in rows) / listeners, "ratio"
        ),
    }


def per_layer(plain, traced, calibration, failed, attempted) -> dict:
    """Self times, counts and ratios from one traced job."""
    plain_times = measure(*plain)
    traced_times = measure(*traced)
    job = traced[1]
    spans = job["spans"]
    facts = job["facts"]
    self_s = spans["self_s"]
    calls = spans["calls"]
    absent = set(spans["absent"])
    metrics: dict[str, tuple[float, str]] = {}

    covered = 0.0
    for layer in LAYERS:
        if layer not in absent and layer not in COUNTED_ONLY:
            metrics[f"{layer}_s"] = (self_s.get(layer, 0.0), "s")
            covered += self_s.get(layer, 0.0)
    traced_e2e = traced_times["e2e_s"]
    metrics["other_s"] = (traced_e2e - covered, "s")
    metrics["bench.traced_e2e_s"] = (traced_e2e, "s")
    metrics["bench.tracing_overhead_s"] = (
        traced_e2e - plain_times["e2e_s"], "s"
    )
    metrics["host.calibration_s"] = (calibration, "s")

    def count(metric, layer, value, unit="count"):
        if layer not in absent:
            metrics[metric] = (value, unit)

    count("engine.schedule_calls", "engine.schedule",
          calls.get("engine.schedule", 0))
    lookups = calls.get("engine.cache.get", 0)
    count("engine.cache_hit_ratio", "engine.cache.get",
          spans["cache_hits"] / lookups if lookups else 0.0, "ratio")
    count("analysis.vectorized.index_builds",
          "analysis.vectorized.index_build",
          calls.get("analysis.vectorized.index_build", 0))
    shard_s = spans["shard_s"]
    count("federation.shard_skew", "federation.shard",
          max(shard_s) / statistics.median(shard_s) if shard_s else 0.0,
          "ratio")

    listeners = facts["listeners"]
    metrics.update({
        "workload.events": (job["events"], "count"),
        "federation.pages_moved": (facts.get("pages_moved", 0), "count"),
        "federation.orphan_listeners": (
            facts.get("orphan_listeners", 0), "count"
        ),
        "federation.shard_rejects": (facts.get("shard_rejects", 0), "count"),
        "engine.executor.retries": (facts["executor_retries"], "count"),
        "engine.executor.failures": (facts["executor_failures"], "count"),
        "live.service.full_replans": (facts["full_replans"], "count"),
        "live.service.incremental_repairs": (
            facts["incremental_repairs"], "count"
        ),
        "live.service.fastpath_replans": (facts["fastpath_replans"], "count"),
        "live.service.batched_share": (
            facts["batched_listeners"] / listeners, "ratio"
        ),
        "control.remediation.records": (
            facts.get("remediation_records", 0), "count"
        ),
        "control.journal.fsyncs": (facts.get("journal_fsyncs", 0), "count"),
        "control.journal.bytes": (facts.get("journal_bytes", 0), "bytes"),
        "engine.telemetry.manifest_bytes": (job["manifest_bytes"], "bytes"),
        "miss_rate": (facts["misses"] / listeners, "ratio"),
        "error_rate": (failed / attempted, "ratio"),
    })

    # Client-side request latencies, from the untraced job.
    plain_facts = plain[1]["facts"]
    writes = plain_facts.get("writes", [])
    reads = plain_facts.get("reads", [])
    metrics["control.plane.writes"] = (len(writes), "count")
    metrics["control.plane.reads"] = (len(reads), "count")
    session_s = sum(writes) + sum(reads)
    metrics["requests_per_s"] = (
        (len(writes) + len(reads)) / session_s if session_s else 0.0, "1/s"
    )
    for kind, samples in (("write", writes), ("read", reads)):
        for q in (50, 99):
            metrics[f"{kind}_p{q}_ms"] = (
                1000.0 * percentile(samples, q) if samples else 0.0, "ms"
            )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SUB_SEEDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        calibration = calibrate()
        log(f"{args.workload} seed {args.seed}: host.calibration_s "
            f"{calibration:.4f}")
        # Untimed warm-up: compiles the byte code a user's install has.
        spawn(["--workload", args.workload, "--setup-only"])
        if args.trace:
            sub = sub_seed(args.seed, 0)
            plain = spawn(["--workload", args.workload, "--seed", str(sub),
                           "--out", str(work / "plain"), "--check-recovery"])
            traced = spawn(["--workload", args.workload, "--seed", str(sub),
                            "--out", str(work / "traced"), "--trace"])
            jobs = [(sub, *plain), (sub, *traced)]
            attempted = 2
        else:
            setup_samples = []
            for _ in range(SETUP_PROBES):
                started, probe = spawn(
                    ["--workload", args.workload, "--setup-only"]
                )
                setup_samples.append(probe["stamps"]["ready"] - started)
            jobs, failures, attempted = run_jobs(
                args.workload, args.seed, args.seconds, work, log
            )
            setup_samples += [measure(*job[1:])["setup_s"] for job in jobs]
    except JobFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        failures = [
            f"sub-seed {sub}: failed checks {bad}"
            for sub, _, job in jobs
            if (bad := failed_checks(job))
        ]
    failures += identity_failures(jobs)
    failed = min(attempted, len(failures))
    if not jobs:
        print(f"error: every job failed: {failures}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = per_layer(jobs[0][1:], jobs[1][1:], calibration, failed,
                            attempted)
        absent = jobs[1][2]["spans"]["absent"]
        if absent:
            log(f"absent layers: {', '.join(absent)}")
        e2e = metrics["bench.traced_e2e_s"][0]
        log("per-layer self time (share of traced e2e):")
        for name, (value, unit) in metrics.items():
            shared = unit == "s" and name not in DIAGNOSTICS
            share = f" ({value / e2e:6.1%})" if shared else ""
            log(f"  {name:40s} {value:14.6f} {unit}{share}")
    else:
        metrics = end_to_end(jobs, setup_samples)
        for name, (value, unit) in metrics.items():
            log(f"  {name:16s} {value:14.6f} {unit}")
    for failure in failures:
        log(f"FAILED: {failure}")
    log(f"checks: {len(jobs)} jobs, {failed} failed; error_rate "
        f"{failed / attempted:.3f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
