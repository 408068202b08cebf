"""One benchmark job: a fresh interpreter runs one workload on one seed.

``run.py`` starts this file as a child process for every measured job,
because a user of the ``repro-air`` command pays interpreter start-up,
imports, a fresh engine and a cold program cache on every invocation.
The job prints one JSON line: monotonic time stamps (``CLOCK_MONOTONIC``
is shared by every process on the host, so the parent can subtract its
own spawn stamp), the output facts the parent checks, and, when traced,
the per-layer spans.

    python3 perfbench/job.py --workload control --seed 7 --out DIR \
        [--trace] [--check-recovery]
    python3 perfbench/job.py --workload station --setup-only

The program comes from ``src/`` next to this directory and nowhere
else; a checkout without it fails here, before any measurement.
"""

from __future__ import annotations

import time

T_PROCESS = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The ladder every workload uses: 8 groups of 40 pages with expected
#: times 4, 8, ..., 512 (320 pages), replayed over a 256-slot horizon.
COUNTS = (40,) * 8
TIMES = tuple(4 * 2**i for i in range(8))
HORIZON = 256
MUTATIONS = 200

STATION_LISTENERS = 100_000
FLEET_LISTENERS = 500_000
FLEET_SHARDS = 8
FLEET_REBALANCE = 1.5
CONTROL_BATCHES = 3_000
CONTROL_BATCH_EVENTS = 20
#: Half the batch workloads' mutations: each may force a full re-plan,
#: and at 200 the re-plan count (35 to 87) moved a session by a quarter
#: from seed to seed, more than the codec and journal this workload is for.
CONTROL_MUTATIONS = 100
#: The journal's ``batch`` policy (an fsync every 16 appends), not the
#: ``serve`` default ``always``: on a shared disk one fsync took 0.1 to
#: 1.3 ms from minute to minute, which moved a session by a third.
CONTROL_FSYNC = "batch"


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"job: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"job: imported repro from {origin}, not {SRC}")


def _collect(pauses: list[float]) -> None:
    """``gc.collect()`` before a timed phase; its pause is left out."""
    started = time.monotonic()
    gc.collect()
    pauses.append(time.monotonic() - started)


def _accepts(fn, name: str) -> bool:
    return name in inspect.signature(fn).parameters


def _columns_digest(trace) -> str:
    """SHA-256 of the generated event columns (time, kind, page, deadline)."""
    import numpy as np

    try:
        columns = trace.columns()
    except AttributeError:
        events = list(trace)
        columns = (
            np.array([e.time for e in events], np.float64),
            np.array([e.kind == "listener" for e in events], np.bool_),
            np.array([e.page_id for e in events], np.int64),
            np.array(
                [-1 if e.expected_time is None else e.expected_time
                 for e in events],
                np.int64,
            ),
        )
    digest = hashlib.sha256()
    for column in columns:
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _listener_count(trace) -> int:
    return sum(1 for event in trace if event.kind == "listener")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _setup(workload: str):
    """Imports, the initial catalog and, for a batch workload, the engine."""
    _import_program()
    from repro import BroadcastEngine, instance_from_counts
    from repro.workload.mutations import generate_mutation_trace

    if workload == "control":
        import repro.control  # noqa: F401  (timed as set-up, like the CLI)

    instance = instance_from_counts(COUNTS, TIMES)
    engine = BroadcastEngine() if workload != "control" else None
    return instance, engine, generate_mutation_trace


class Stamps:
    """Monotonic time stamps of one job; ``done`` also freezes the spans."""

    def __init__(self) -> None:
        self.times = {"process": T_PROCESS}
        self.tracer = None
        self.spans = None

    def mark(self, name: str) -> None:
        self.times[name] = time.monotonic()
        if name == "done" and self.tracer is not None:
            self.spans = self.tracer.snapshot()


def run_station(
    seed, out, instance, engine, generate, pauses, stamps, check_recovery
):
    _collect(pauses)
    trace = generate(
        instance, seed=seed, horizon=HORIZON, mutations=MUTATIONS,
        listeners=STATION_LISTENERS,
    )
    stamps.mark("inputs")
    _collect(pauses)
    options = {"admission": True, "baseline": True}
    if _accepts(engine.live, "batch_listeners"):
        options["batch_listeners"] = True
    manifest_path = out / "manifest.json"
    result = engine.live(
        instance, trace, manifest_path=manifest_path, **options
    )
    stamps.mark("done")
    rss = _peak_rss_mb()
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    results = manifest["results"]
    generated = _listener_count(trace)
    checks = {
        "final_valid": results["final_valid"] is True,
        "listeners_served": results["listeners"] == generated,
        "report_matches_manifest": (
            result.report.counters["listeners"] == results["listeners"]
        ),
    }
    counters = manifest["service"]["counters"]
    return trace, manifest_path, rss, checks, {
        "listeners": results["listeners"],
        "misses": manifest["service"]["slo"]["misses"],
        "full_replans": counters["full_replans"],
        "incremental_repairs": counters["incremental_repairs"],
        "fastpath_replans": counters.get("fastpath_replans", 0),
        "batched_listeners": counters.get("batched_listeners", 0),
        "executor_retries": manifest["executor"]["retries"],
        "executor_failures": manifest["executor"]["cell_failures"],
    }


def run_fleet(
    seed, out, instance, engine, generate, pauses, stamps, check_recovery
):
    _collect(pauses)
    trace = generate(
        instance, seed=seed, horizon=HORIZON, mutations=MUTATIONS,
        listeners=FLEET_LISTENERS,
    )
    stamps.mark("inputs")
    _collect(pauses)
    options = {
        "shards": FLEET_SHARDS,
        "rebalance_threshold": FLEET_REBALANCE,
    }
    if _accepts(engine.federate, "batch_listeners"):
        options["batch_listeners"] = True
    manifest_path = out / "manifest.json"
    result = engine.federate(
        instance, trace, manifest_path=manifest_path, **options
    )
    stamps.mark("done")
    rss = _peak_rss_mb()
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    results = manifest["results"]
    federation = manifest["federation"]
    shards = federation["shard_reports"]
    counters = federation["counters"]
    generated = _listener_count(trace)
    shard_sums = {
        name: sum(shard["counters"][name] for shard in shards)
        for name in counters
    }
    checks = {
        "final_valid": results["final_valid"] is True,
        "listeners_served": results["listeners"] == generated,
        "fleet_listeners_sum": results["listeners"]
        == sum(shard["slo"]["listeners"] for shard in shards),
        "fleet_misses_sum": results["misses"]
        == sum(shard["slo"]["misses"] for shard in shards),
        "fleet_counters_sum": counters == shard_sums,
        "shard_count": len(shards) == FLEET_SHARDS,
        "report_matches_manifest": (
            result.report.listeners == results["listeners"]
        ),
    }
    return trace, manifest_path, rss, checks, {
        "listeners": results["listeners"],
        "misses": results["misses"],
        "full_replans": counters["full_replans"],
        "incremental_repairs": counters["incremental_repairs"],
        "fastpath_replans": counters.get("fastpath_replans", 0),
        "batched_listeners": counters.get("batched_listeners", 0),
        "executor_retries": manifest["executor"]["retries"],
        "executor_failures": manifest["executor"]["cell_failures"],
        "pages_moved": results["pages_moved"],
        "orphan_listeners": federation["routing"].get("orphan_listeners", 0),
        # Shard-local rejections of mutations the global ledger admitted
        # (the ledger's own rejections are never routed to a shard).
        "shard_rejects": sum(
            shard["admission"]["rejected"] for shard in shards
        ),
    }


def run_control(
    seed, out, instance, engine, generate, pauses, stamps, check_recovery
):
    """A closed-loop client session against a journaled control plane.

    Client and server share one event loop and one UNIX-socket
    connection; the client sends its next request only after the reply
    to the previous one arrived, as the repository's clients do.
    """
    import asyncio

    from repro.api import (
        ApiError,
        CreateServiceRequest,
        ErrorBudgetQuery,
        FinishService,
        MutationBatch,
        ServiceManifest,
        Shutdown,
        SloQuery,
    )
    from repro.control import (
        ControlPlane,
        ControlPlaneClient,
        ControlPlaneServer,
        Journal,
    )

    _collect(pauses)
    listeners = CONTROL_BATCHES * CONTROL_BATCH_EVENTS - CONTROL_MUTATIONS
    trace = generate(
        instance, seed=seed, horizon=HORIZON, mutations=CONTROL_MUTATIONS,
        listeners=listeners,
    )
    events = tuple(trace)
    batches = [
        events[i:i + CONTROL_BATCH_EVENTS]
        for i in range(0, len(events), CONTROL_BATCH_EVENTS)
    ]
    catalog = {page.page_id: page.expected_time for page in instance.pages()}
    stamps.mark("inputs")
    _collect(pauses)

    journal_path = out / "control.journal"
    manifest_path = out / "manifest.json"
    socket_name = "control.sock"  # relative: the socket path limit is short
    writes: list[float] = []
    reads: list[float] = []
    api_errors = 0
    received: dict = {}
    facts: dict = {}
    clock = time.perf_counter

    async def ask(client, message, samples):
        nonlocal api_errors
        started = clock()
        response = await client.request(message)
        if samples is not None:
            samples.append(clock() - started)
        api_errors += isinstance(response, ApiError)
        return response

    async def converse(client) -> None:
        await ask(
            client,
            CreateServiceRequest(
                name="bench", catalog=catalog, horizon=HORIZON
            ),
            None,
        )
        for index, batch in enumerate(batches):
            batch_request = MutationBatch(service="bench", events=batch)
            await ask(client, batch_request, writes)
            if index % 2 == 1:
                expected = TIMES[index // 2 % len(TIMES)]
                await ask(
                    client, SloQuery(service="bench", expected_time=expected),
                    reads,
                )
                await ask(client, ErrorBudgetQuery(service="bench"), reads)
        finished = await ask(client, FinishService(service="bench"), None)
        if isinstance(finished, ServiceManifest):
            received.update(finished.manifest)
            manifest_path.write_text(
                json.dumps(received, sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
        stamps.mark("done")
        await ask(client, Shutdown(), None)

    async def session() -> None:
        with Journal.open(journal_path, fsync=CONTROL_FSYNC) as journal:
            server = ControlPlaneServer(ControlPlane(journal=journal))
            async with await server.start_unix(socket_name):
                client = await ControlPlaneClient.connect_unix(socket_name)
                try:
                    await converse(client)
                finally:
                    await client.close()
                await server.wait_closed()
            facts["journal_fsyncs"] = journal.stats()["fsyncs"]

    cwd = os.getcwd()
    os.chdir(out)
    try:
        asyncio.run(session())
    finally:
        os.chdir(cwd)
    rss = _peak_rss_mb()
    if "done" not in stamps.times:
        raise RuntimeError("the control session finished no service")

    results = received["results"]
    generated = _listener_count(trace)
    checks = {
        "no_api_errors": api_errors == 0,
        "final_valid": results["final_valid"] is True,
        "listeners_served": results["listeners"] == generated,
    }
    if check_recovery:
        # Untimed: a plane recovered from the journal rebuilds the manifest.
        with Journal.open(journal_path, fsync="never") as journal:
            recovered = ControlPlane.recover(journal).finished_manifests
        checks["journal_recovers_manifest"] = (
            bool(recovered) and recovered[-1].manifest == received
        )
    counters = received["service"]["counters"]
    return trace, manifest_path, rss, checks, facts | {
        "listeners": results["listeners"],
        "misses": received["service"]["slo"]["misses"],
        "full_replans": counters["full_replans"],
        "incremental_repairs": counters["incremental_repairs"],
        "fastpath_replans": counters.get("fastpath_replans", 0),
        "batched_listeners": counters.get("batched_listeners", 0),
        "executor_retries": received["executor"]["retries"],
        "executor_failures": received["executor"]["cell_failures"],
        "remediation_records": len(received["control"].get("records", ())),
        "writes": writes,
        "reads": reads,
        "journal_bytes": journal_path.stat().st_size,
    }


WORKLOADS = {
    "station": run_station,
    "fleet": run_fleet,
    "control": run_control,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--check-recovery", action="store_true",
        help="control: also rebuild the manifest from the journal (untimed)",
    )
    args = parser.parse_args(argv)

    instance, engine, generate = _setup(args.workload)
    stamps = Stamps()
    stamps.mark("ready")
    if args.setup_only:
        print(json.dumps({"stamps": stamps.times}))
        return 0

    if args.trace:
        from tracing import Tracer, install  # this script's directory

        stamps.tracer = Tracer()
        install(stamps.tracer)
        # Re-bind after install: ``generate`` predates the wrappers.
        from repro.workload.mutations import (
            generate_mutation_trace as generate,
        )
    args.out.mkdir(parents=True, exist_ok=True)
    pauses: list[float] = []
    trace, manifest_path, rss, checks, facts = WORKLOADS[args.workload](
        args.seed, args.out, instance, engine, generate, pauses, stamps,
        args.check_recovery,
    )
    print(json.dumps({
        "stamps": stamps.times,
        "gc_pause_s": pauses,
        "peak_rss_mb": rss,
        "checks": checks,
        "facts": facts,
        "events": len(trace),
        "columns_digest": _columns_digest(trace),
        "manifest_digest": _file_digest(manifest_path),
        "manifest_bytes": manifest_path.stat().st_size,
        "spans": stamps.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
