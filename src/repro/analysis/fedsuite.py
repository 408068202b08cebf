"""The federation-scaling perf suite behind ``repro-air bench --suite fed``.

:mod:`repro.analysis.perfsuite` pins the scheduling core and
:mod:`repro.analysis.servesuite` pins single-station serving; this
module pins the *federation* win: sharding one large catalog across N
stations makes mutation-heavy replay dramatically cheaper, because
every admitted mutation re-plans a ~K/N-page shard catalog instead of
the full K pages (the paper's schedulers are super-linear in catalog
size), and listener replay touches only the owning shard.  Each
``fed_scale_N`` entry replays the *same* seeded mutation trace through
:class:`~repro.federation.service.FederatedBroadcastService` twice —
reference = 1 shard (the whole catalog behind one station, identical
routing overhead), fast = N shards — so the ratio isolates the
partitioning win from router cost.  Budgets are left at ``None`` (each
arm's own taut Theorem-3.1 minimum), the fair comparison: a fixed
global budget would either starve the 1-shard arm or slacken the
N-shard arms.

The payload (``benchmarks/results/BENCH_fed.json``) follows the
BENCH_core contract — ratios not absolute times, best-of-N minimum
timing, ``quick``/full modes, per-entry ``floor`` gates — and is
validated and regression-gated by the same
:func:`~repro.analysis.perfsuite.validate_payload` /
:func:`~repro.analysis.perfsuite.compare_payloads` (parameterised by
schema).  Each entry's ``stats`` block carries the scaling headline
numbers (listeners/sec per arm, full re-plans per arm, pages moved)
quoted in README and DESIGN.
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

SCHEMA = "repro-air/bench-fed/v1"

# name -> (floor, builder).  A builder maps quick -> (config, reference
# thunk, fast thunk, stats_fn); thunks are timed best-of-N and
# stats_fn(reference_s, fast_s) derives the stats block.
_Builder = Callable[[bool], tuple]


def _fed_workload(quick: bool):
    """A geometric ladder plus its seeded mutation/listener timeline."""
    from repro.core.pages import instance_from_counts
    from repro.workload.mutations import generate_mutation_trace

    group_size = 10 if quick else 40
    instance = instance_from_counts(
        (group_size,) * 8, (4, 8, 16, 32, 64, 128, 256, 512)
    )
    trace = generate_mutation_trace(
        instance,
        seed=11,
        horizon=128 if quick else 256,
        mutations=60 if quick else 200,
        listeners=800 if quick else 4_000,
    )
    trace.fingerprint()  # memoise outside the timers
    trace.columns()  # memoise the columnar view outside the timers too
    return instance, trace


def _build_scale(shards: int) -> _Builder:
    def build(quick: bool):
        from repro.federation.service import FederatedBroadcastService

        instance, trace = _fed_workload(quick)

        def replay(n: int):
            # A fresh service per call: replay is once-only by design.
            # The warm shard pool is OFF here — this entry pins the
            # *partitioning* win on cold per-mutation re-planning, and
            # warm program caches would hide exactly that cost (in both
            # arms equally, collapsing the ratio to ~1).
            return FederatedBroadcastService(
                instance,
                trace,
                shards=n,
                budget=None,
                seed=0,
                rebalance_threshold=1.5,
                max_pages_moved=4,
                warm_shard_pool=False,
            ).run()

        reference_probe = replay(1)
        fast_probe = replay(shards)
        listeners = reference_probe.listeners
        config = {
            "shards": shards,
            "pages": instance.n,
            "groups": len(instance.groups),
            "mutations": len(trace.mutations()),
            "listeners": len(trace.listeners()),
            "horizon": trace.horizon,
            "budget": "per-arm Theorem-3.1 minimum",
            "rebalance_threshold": 1.5,
            "max_pages_moved": 4,
            "warm_shard_pool": False,
        }

        def stats(reference_s: float, fast_s: float) -> dict:
            return {
                "listeners_per_second_reference": round(
                    listeners / reference_s
                ),
                "listeners_per_second_fast": round(listeners / fast_s),
                "full_replans_reference": reference_probe.counters[
                    "full_replans"
                ],
                "full_replans_fast": fast_probe.counters["full_replans"],
                "pages_moved": fast_probe.pages_moved,
            }

        return config, lambda: replay(1), lambda: replay(shards), stats

    return build


SUITE_ENTRIES: dict[str, tuple[float, _Builder]] = {
    "fed_scale_2": (1.5, _build_scale(2)),
    "fed_scale_4": (2.5, _build_scale(4)),
    "fed_scale_8": (3.0, _build_scale(8)),
}


def run_suite(quick: bool = False, repeats: int = 3) -> dict:
    """Time every suite entry; returns the BENCH_fed payload."""
    from repro.analysis.perfsuite import _best_of

    if repeats < 1:
        raise SimulationError(f"repeats must be >= 1, got {repeats}")
    benchmarks = {}
    for name, (floor, builder) in SUITE_ENTRIES.items():
        config, reference, fast, stats = builder(quick)
        # The builder already ran both arms once (warm + probe).
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
