"""The serving-throughput perf suite behind ``repro-air bench --suite serve``.

:mod:`repro.analysis.perfsuite` pins the scheduling core's fast paths;
this module pins the *serving* fast paths added on top of the live
runtime and the sweep executor:

* **Mutation coalescing** — ``coalesce_window > 0`` folds same-page
  mutation churn (insert+remove cancels, retunes collapse to the last)
  into net operations, re-planning once per surviving operation instead
  of once per raw event.
* **Zero-copy chunked sweeps** — :attr:`~repro.engine.executor.
  ExecutionPolicy.chunk_size` ships one ``ProblemInstance`` per chunk
  of cells instead of per cell, and ``transport="shm"`` moves chunk
  results through ``multiprocessing.shared_memory`` segments instead
  of the pool's pickle pipe, cutting transport overhead on grids of
  cheap cells.

The payload (``benchmarks/results/BENCH_serve.json``) follows the same
contract as BENCH_core — ratios not absolute times, best-of-N minimum
timing, ``quick``/full modes, per-entry ``floor`` gates — and is
validated and regression-gated by the same
:func:`~repro.analysis.perfsuite.validate_payload` /
:func:`~repro.analysis.perfsuite.compare_payloads` (parameterised by
schema).  Each entry additionally carries a ``stats`` block with the
throughput headline numbers (re-plans avoided, cells/sec) quoted in
README and DESIGN.  Listener replay has no reference arm to time
against; its absolute throughput is measured end to end by the
``station`` and ``fleet`` jobs of ``perfbench/``.
"""

from __future__ import annotations

from typing import Callable

from repro import __version__
from repro.core.errors import SimulationError

__all__ = [
    "SCHEMA",
    "SUITE_ENTRIES",
    "run_suite",
]

SCHEMA = "repro-air/bench-serve/v1"

# name -> (floor, builder).  A builder maps quick -> (config, reference
# thunk, fast thunk, stats_fn); thunks are timed best-of-N and
# stats_fn(reference_s, fast_s) derives the throughput stats block.
_Builder = Callable[[bool], tuple]


def _serve_instance():
    from repro.core.pages import instance_from_counts

    return instance_from_counts((2, 3, 2), (2, 4, 8))


def _storm_trace(instance, bursts: int, storm: int):
    """Retune storms: ``storm`` same-page retunes per burst.

    Deadlines alternate within the burst, so every raw event changes
    catalog state, yet the *net* of most bursts is a no-op (the final
    deadline equals the initial one) — the exact churn shape the
    coalescing window exists to absorb.
    """
    from repro.live.mutations import MutationEvent, MutationTrace

    page_ids = sorted(
        page.page_id for group in instance.groups for page in group.pages
    )
    events = []
    t = 2
    for burst in range(bursts):
        page = page_ids[burst % len(page_ids)]
        for j in range(storm):
            events.append(
                MutationEvent(
                    time=float(t + j),
                    kind="page_retune",
                    page_id=page,
                    expected_time=4 if j % 2 == 0 else 8,
                )
            )
        events.append(
            MutationEvent(
                time=t + storm + 0.5,
                kind="listener",
                page_id=page,
                expected_time=8,
            )
        )
        t += storm + 12
    return MutationTrace(
        horizon=t + 32,
        events=tuple(events),
        meta={"generator": "servesuite-storm"},
    )


def _build_mutation_coalescing(quick: bool):
    from repro.live.service import LiveBroadcastService

    instance = _serve_instance()
    bursts = 60 if quick else 400
    storm = 6
    window = 6
    trace = _storm_trace(instance, bursts, storm)
    trace.fingerprint()

    def run(coalesce: int):
        return LiveBroadcastService(
            instance, trace, budget=12, coalesce_window=coalesce
        ).run()

    probe = run(window).counters
    config = {
        "bursts": bursts,
        "storm": storm,
        "window": window,
        "mutations": bursts * storm,
    }

    def stats(reference_s: float, fast_s: float) -> dict:
        return {
            "replans_avoided": probe.get("replans_avoided", 0),
            "events_coalesced": probe.get("events_coalesced", 0),
        }

    return config, lambda: run(0), lambda: run(window), stats


def _build_sweep_zerocopy(quick: bool):
    from repro.core.pages import instance_from_counts
    from repro.engine.executor import (
        CellSpec,
        ExecutionPolicy,
        run_cells,
    )
    from repro.engine.registry import get_scheduler

    instance = instance_from_counts((80, 80, 80, 80), (4, 8, 16, 32))
    scheduler = get_scheduler("pamad")
    cells = 48 if quick else 120
    chunk_size = 8 if quick else 16
    workers = 4
    specs = [
        CellSpec(
            algorithm="pamad",
            scheduler=scheduler,
            channels=2 + (i % 7),
            instance=instance,
            num_requests=60,
            seed=9_000 + i,
        )
        for i in range(cells)
    ]

    def sweep(chunk: int, transport: str):
        outcomes, report = run_cells(
            specs,
            workers=workers,
            mode="process",
            policy=ExecutionPolicy(chunk_size=chunk, transport=transport),
        )
        if report.fallback:
            # Both paths would silently degrade to identical serial runs
            # and the ratio would gate on noise — fail loudly instead.
            raise SimulationError(
                "sweep-zerocopy benchmark fell back to serial execution; "
                "process pools are unavailable on this host"
            )
        return outcomes

    config = {
        "cells": cells,
        "workers": workers,
        "chunk_size": chunk_size,
        "transport": "shm",
        "pages": instance.n,
        "num_requests": 60,
    }

    def stats(reference_s: float, fast_s: float) -> dict:
        return {
            "cells_per_second_reference": round(cells / reference_s, 1),
            "cells_per_second_fast": round(cells / fast_s, 1),
        }

    # Reference is the pre-optimisation executor: one pickled instance
    # per cell over the pool pipe.  Fast combines chunking with the
    # shared-memory manifest so workers map results instead of piping.
    return (
        config,
        lambda: sweep(1, "pickle"),
        lambda: sweep(chunk_size, "shm"),
        stats,
    )


SUITE_ENTRIES: dict[str, tuple[float, _Builder]] = {
    "serve_mutation_coalescing": (1.3, _build_mutation_coalescing),
    "serve_sweep_zerocopy": (1.1, _build_sweep_zerocopy),
}


def run_suite(quick: bool = False, repeats: int = 3) -> dict:
    """Time every suite entry; returns the BENCH_serve payload."""
    from repro.analysis.perfsuite import _best_of

    if repeats < 1:
        raise SimulationError(f"repeats must be >= 1, got {repeats}")
    benchmarks = {}
    for name, (floor, builder) in SUITE_ENTRIES.items():
        config, reference, fast, stats = builder(quick)
        reference()  # warm both paths outside the timer
        fast()
        reference_s = _best_of(reference, 1, repeats)
        fast_s = _best_of(fast, 1, repeats)
        benchmarks[name] = {
            "config": config,
            "reference_ms": round(reference_s * 1000.0, 4),
            "fast_ms": round(fast_s * 1000.0, 4),
            "speedup": round(reference_s / fast_s, 2),
            "floor": floor,
            "stats": stats(reference_s, fast_s),
        }
    return {
        "schema": SCHEMA,
        "version": __version__,
        "quick": quick,
        "repeats": repeats,
        "benchmarks": benchmarks,
    }
