"""Tests for the million-listener serving fast paths.

Three fast paths, each pinned to its reference semantics:

* **Batched listener replay** — :meth:`LiveBroadcastService.run`
  must produce the same programs, admission verdicts, SLO statistics
  and counters as :func:`_replay_event_by_event`, the per-event oracle
  kept here (bit-identical, ``average_wait`` included).  The online
  ``start``/``offer``/``finish`` surface must match the oracle's report
  and event log exactly, coalescing window or not.
* **Mutation coalescing** — a coalesced replay must equal an
  event-by-event replay of the *net* trace (the same windowed fold,
  applied independently here), as long as the budget is ample; taut
  budgets make net operations depend on admission verdicts, which is
  why the equivalence property is stated under ample budget and taut
  runs are pinned by determinism instead.
* **Chunked sweep transport and measurement backends** — chunking and
  lazy wave submission never change which outcomes come back (list
  identity with a serial run for every ``chunk_size``), the ``batch``
  backend agrees with the scalar reference statistically (different RNG
  streams, same request model), and an open circuit short-circuits
  cells that were never submitted.

What coalescing and chunked shm transport save is pinned as
deterministic counts (:class:`TestServeWorkCounts`): repairs avoided
on retune storms and pool submissions per sweep.
"""

from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError, SimulationError
from repro.core.pages import instance_from_counts
from repro.engine.executor import (
    CellFailure,
    CellResult,
    CellSpec,
    ExecutionPolicy,
    run_cells,
)
from repro.engine.registry import get_scheduler
from repro.live.mutations import MutationEvent, MutationTrace
from repro.live.service import LiveBroadcastService
from repro.sim.events import EventLoop
from repro.workload.mutations import generate_mutation_trace

#: Ample channel budget for the (2, 3, 2) x (2, 4, 8) instance: every
#: mutation the generator can draw fits, so admission never rejects.
AMPLE_BUDGET = 12


def _initial_instance():
    return instance_from_counts((2, 3, 2), (2, 4, 8))


def _replay_event_by_event(service):
    """The oracle: every trace event through the per-event handlers.

    Schedules each event on the loop up front, in trace order, exactly
    as ``run()`` did before listener runs were batched — so a coalescing
    flush due at ``t`` fires after every trace event at ``t``.
    """
    service._loop = EventLoop()
    service._full_replan("initial")
    service._self_check("initial")
    for event in service.trace.events:
        handler = (
            service._on_listener
            if event.kind == "listener"
            else service._on_mutation
        )
        service._loop.schedule_at(event.time, partial(handler, event))
    service._loop.run(until=float(service.trace.horizon))
    return service._build_report()


def _replay(instance, trace, *, oracle=False, **kwargs):
    """Replay on a fresh service; returns ``(report, service)``."""
    kwargs.setdefault("budget", AMPLE_BUDGET)
    service = LiveBroadcastService(instance, trace, **kwargs)
    report = _replay_event_by_event(service) if oracle else service.run()
    return report, service


def _run(instance, trace, **kwargs):
    return _replay(instance, trace, **kwargs)[0]


def _run_online(instance, trace, **kwargs):
    """Stream ``trace``'s events through ``start``/``offer``/``finish``."""
    kwargs.setdefault("budget", AMPLE_BUDGET)
    service = LiveBroadcastService(instance, trace, **kwargs)
    service.start()
    for event in trace.events:
        service.offer(event)
    return service.finish()


def _without_batch_counter(counters):
    return {k: v for k, v in counters.items() if k != "batched_listeners"}


def _comparable(report):
    """The cross-mode comparable surface of a LiveReport."""
    return {
        "program": report.program,
        "catalog": dict(report.catalog),
        "final_required": report.final_required,
        "final_valid": report.final_valid,
        "decisions": [d.as_dict() for d in report.decisions],
        "admission": dict(report.admission),
        "listeners": report.counters["listeners"],
        "misses": report.counters["misses"],
        "slo_replans": report.counters["slo_replans"],
        "full_replans": report.counters["full_replans"],
    }


@st.composite
def replay_cases(draw):
    seed = draw(st.integers(0, 10_000))
    horizon = draw(st.integers(16, 96))
    mutations = draw(st.integers(0, 20))
    listeners = draw(st.integers(1, 120))
    return seed, horizon, mutations, listeners


class TestBatchedListenerReplay:
    @settings(max_examples=20, deadline=None)
    @given(case=replay_cases(), taut=st.booleans())
    def test_batched_replay_matches_event_by_event(self, case, taut):
        """Bit-identical, including mid-batch SLO replans.

        ``taut=True`` drops the budget to the initial catalog's
        Theorem-3.1 requirement, so admission rejections and queueing
        interleave with the batches — the equality must survive that
        too (batching only groups *listeners*, never decisions).
        """
        seed, horizon, mutations, listeners = case
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=listeners,
        )
        budget = 2 if taut else AMPLE_BUDGET
        event, event_service = _replay(
            instance, trace, budget=budget, oracle=True
        )
        batched, batched_service = _replay(instance, trace, budget=budget)
        assert _comparable(batched) == _comparable(event)
        assert batched.slo == event.slo
        # The report rounds average_wait; the running total is raw.
        assert batched_service.slo.total_wait == (
            event_service.slo.total_wait
        )
        assert _without_batch_counter(batched.counters) == (
            _without_batch_counter(event.counters)
        )
        assert batched.counters["batched_listeners"] == (
            batched.counters["listeners"]
        )
        assert event.counters["batched_listeners"] == 0

    def test_default_accumulation_agrees_within_float_tolerance(self):
        """The SLO wait total is one left-to-right fold in both paths.

        ``observe_batch`` accumulates with ``np.add.accumulate`` seeded
        by the running total, so the mean wait agrees with the
        per-listener ``+=`` of the oracle to the last bit, not merely
        within a float tolerance.
        """
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance, seed=5, horizon=64, mutations=8, listeners=200
        )
        event, event_service = _replay(instance, trace, oracle=True)
        batched, batched_service = _replay(instance, trace)
        assert _comparable(batched) == _comparable(event)
        assert batched.slo == event.slo
        assert batched_service.slo.total_wait == (
            event_service.slo.total_wait
        )
        assert batched_service.slo.average_wait == (
            event_service.slo.average_wait
        )

    def test_batched_replay_is_deterministic(self):
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance, seed=9, horizon=48, mutations=6, listeners=90
        )
        first = _run(instance, trace)
        second = _run(instance, trace)
        assert first.event_log == second.event_log
        assert first.program == second.program


class TestOnlineReplay:
    @settings(max_examples=25, deadline=None)
    @given(
        case=replay_cases(),
        window=st.integers(0, 4),
        taut=st.booleans(),
    )
    def test_online_matches_trace_replay(self, case, window, taut):
        """``offer`` one event at a time == replaying the whole trace.

        Compared against the per-event oracle in full (report and event
        log), and against batched ``run()`` on every report field but
        the ``batched_listeners`` counter.
        """
        seed, horizon, mutations, listeners = case
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=listeners,
        )
        kwargs = dict(budget=2 if taut else AMPLE_BUDGET,
                      coalesce_window=window)
        online = _run_online(instance, trace, **kwargs)
        oracle = _run(instance, trace, oracle=True, **kwargs)
        batched = _run(instance, trace, **kwargs)
        assert online.event_log == oracle.event_log
        assert online.as_dict() == oracle.as_dict()
        assert online.program == oracle.program
        online_block = online.as_dict()
        batched_block = batched.as_dict()
        online_block["counters"].pop("batched_listeners")
        batched_block["counters"].pop("batched_listeners")
        assert online_block == batched_block

    def test_flush_due_at_an_offered_time_waits_for_it(self):
        """A flush due at ``t`` runs after the events offered at ``t``."""
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance, seed=1, horizon=64, mutations=12, listeners=150
        )
        online = _run_online(instance, trace, coalesce_window=3)
        oracle = _run(instance, trace, oracle=True, coalesce_window=3)
        flushes = [
            entry for entry in online.event_log
            if entry["type"] == "coalesce_flush" and entry["t"] == 8.0
        ]
        assert [entry["buffered"] for entry in flushes] == [2]
        assert online.event_log == oracle.event_log


def _fold_window(pending, catalog, flush_time):
    """Independent re-statement of the service's windowed net fold.

    Replays a buffered burst per page against its pre-window membership
    (invalid mid-sequence ops dropped) and emits only the initial ->
    final difference at ``flush_time``, ordered by ``(kind, page_id)``
    — then applies it to the shadow ``catalog``.
    """
    initial: dict[int, int | None] = {}
    final: dict[int, int | None] = {}
    order: list[int] = []
    for event in pending:
        page_id = event.page_id
        if page_id not in initial:
            before = catalog.get(page_id)
            initial[page_id] = before
            final[page_id] = before
            order.append(page_id)
        state = final[page_id]
        if event.kind == "page_insert":
            if state is None:
                final[page_id] = event.expected_time
        elif event.kind == "page_remove":
            if state is not None:
                final[page_id] = None
        else:
            if state is not None:
                final[page_id] = event.expected_time
    net = []
    for page_id in order:
        before, after = initial[page_id], final[page_id]
        if before == after:
            continue
        if before is None:
            net.append(MutationEvent(
                time=flush_time, kind="page_insert",
                page_id=page_id, expected_time=after,
            ))
        elif after is None:
            net.append(MutationEvent(
                time=flush_time, kind="page_remove", page_id=page_id,
            ))
        else:
            net.append(MutationEvent(
                time=flush_time, kind="page_retune",
                page_id=page_id, expected_time=after,
            ))
        if after is None:
            catalog.pop(page_id, None)
        else:
            catalog[page_id] = after
    net.sort(key=lambda e: (e.kind, e.page_id))
    return net


def _net_trace(trace, window, initial_catalog):
    """The trace a coalescing service effectively replays.

    Mutations are folded window-by-window into net operations stamped
    at the flush time; listeners pass through untouched.  The horizon
    is extended when the trailing window closes past the original one
    (the runtime applies that flush after the loop drains).
    """
    catalog = dict(initial_catalog)
    events: list[MutationEvent] = []
    pending: list[MutationEvent] = []
    window_end = None

    def flush():
        nonlocal pending, window_end
        if pending:
            events.extend(_fold_window(pending, catalog, window_end))
        pending, window_end = [], None

    for event in trace.events:
        if event.kind == "listener":
            events.append(event)
            continue
        if window_end is not None and event.time > window_end:
            flush()
        if window_end is None:
            window_end = event.time + window
        pending.append(event)
    last_end = window_end
    flush()
    horizon = trace.horizon
    if last_end is not None:
        horizon = max(horizon, int(last_end) + 1)
    return MutationTrace(horizon=horizon, events=tuple(events))


@st.composite
def coalescing_cases(draw):
    seed = draw(st.integers(0, 10_000))
    horizon = draw(st.integers(16, 96))
    mutations = draw(st.integers(1, 24))
    listeners = draw(st.integers(0, 40))
    window = draw(st.integers(1, 8))
    return seed, horizon, mutations, listeners, window


class TestMutationCoalescing:
    @settings(max_examples=20, deadline=None)
    @given(case=coalescing_cases())
    def test_coalesced_replay_equals_net_trace_replay(self, case):
        """The coalescing equivalence property (ample budget).

        A coalesced run of the raw trace must equal an event-by-event
        run of the independently folded net trace: same final grid,
        same admission decisions, same SLO outcome.  Ample budget is
        load-bearing — under a taut budget the net fold would need the
        service's own admission verdicts to know the pre-window catalog,
        making the statement circular.
        """
        seed, horizon, mutations, listeners, window = case
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=listeners,
        )
        initial_catalog = {
            page.page_id: page.expected_time
            for group in instance.groups
            for page in group.pages
        }
        net = _net_trace(trace, window, initial_catalog)
        coalesced = _run(instance, trace, coalesce_window=window)
        replayed = _run(instance, net)
        assert _comparable(coalesced) == _comparable(replayed)
        assert coalesced.slo == replayed.slo
        assert coalesced.counters["events_coalesced"] == len(
            trace.mutations()
        )
        assert coalesced.counters["replans_avoided"] == (
            len(trace.mutations()) - len(net.mutations())
        )

    @settings(max_examples=10, deadline=None)
    @given(case=coalescing_cases())
    def test_taut_budget_coalescing_is_deterministic(self, case):
        """Under a taut budget the equivalence above cannot be stated
        independently, but the replay contract still holds: identical
        inputs give byte-identical event logs."""
        seed, horizon, mutations, listeners, window = case
        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance,
            seed=seed,
            horizon=horizon,
            mutations=mutations,
            listeners=listeners,
        )
        first = _run(instance, trace, budget=2, coalesce_window=window)
        second = _run(instance, trace, budget=2, coalesce_window=window)
        assert first.event_log == second.event_log
        assert first.program == second.program

    def test_insert_remove_within_window_cancels(self):
        instance = _initial_instance()
        trace = MutationTrace(
            horizon=32,
            events=(
                MutationEvent(time=4.0, kind="page_insert",
                              page_id=99, expected_time=4),
                MutationEvent(time=5.0, kind="page_remove", page_id=99),
            ),
        )
        report = _run(instance, trace, coalesce_window=4)
        assert 99 not in report.catalog
        assert report.decisions == ()  # nothing survived the fold
        assert report.counters["events_coalesced"] == 2
        assert report.counters["replans_avoided"] == 2

    def test_retunes_within_window_collapse_to_last(self):
        instance = _initial_instance()
        page = next(
            p.page_id for g in instance.groups for p in g.pages
        )
        trace = MutationTrace(
            horizon=32,
            events=(
                MutationEvent(time=4.0, kind="page_retune",
                              page_id=page, expected_time=4),
                MutationEvent(time=5.0, kind="page_retune",
                              page_id=page, expected_time=8),
                MutationEvent(time=6.0, kind="page_retune",
                              page_id=page, expected_time=4),
            ),
        )
        report = _run(instance, trace, coalesce_window=6)
        assert report.catalog[page] == 4
        assert len(report.decisions) == 1
        assert report.decisions[0].kind == "page_retune"
        assert report.counters["replans_avoided"] == 2

    def test_trailing_window_flushes_after_the_horizon(self):
        instance = _initial_instance()
        trace = MutationTrace(
            horizon=16,
            events=(
                MutationEvent(time=14.0, kind="page_insert",
                              page_id=99, expected_time=8),
            ),
        )
        report = _run(instance, trace, coalesce_window=1000)
        assert report.catalog[99] == 8
        assert report.counters["events_coalesced"] == 1

    def test_window_must_be_non_negative(self):
        instance = _initial_instance()
        trace = generate_mutation_trace(instance, seed=0, horizon=16)
        with pytest.raises(SimulationError, match="coalesce_window"):
            LiveBroadcastService(
                instance, trace, budget=AMPLE_BUDGET, coalesce_window=-1
            )


class TestMeasurementBackends:
    def test_dispatch_matches_direct_calls(self):
        from repro.analysis.vectorized import batch_measure
        from repro.sim.clients import measure_program, measure_with_backend

        instance = _initial_instance()
        program = get_scheduler("pamad")(instance, 2).program
        scalar = measure_with_backend(
            program, instance, num_requests=400, seed=3, backend="scalar"
        )
        reference = measure_program(
            program, instance, num_requests=400, seed=3
        )
        assert scalar.average_delay == reference.average_delay
        assert scalar.average_wait == reference.average_wait
        batch = measure_with_backend(
            program, instance, num_requests=400, seed=3, backend="batch"
        )
        direct = batch_measure(program, instance, num_requests=400, seed=3)
        assert batch.average_delay == direct.average_delay
        assert batch.average_wait == direct.average_wait

    def test_unknown_backend_is_rejected(self):
        from repro.sim.clients import measure_with_backend

        instance = _initial_instance()
        program = get_scheduler("pamad")(instance, 2).program
        with pytest.raises(SimulationError, match="backend"):
            measure_with_backend(program, instance, backend="bogus")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backends_agree_statistically(self, seed):
        """Scalar and batch draw different RNG streams, so for one seed
        they agree only in distribution.  Both estimate the same means
        from ``n`` i.i.d. requests, so the difference of the two
        estimates is bounded by the combined standard error; the bound
        below is 6 x that (plus an epsilon for the zero-variance case),
        i.e. a ~1e-9 flake probability per comparison.
        """
        from repro.analysis.vectorized import batch_measure
        from repro.sim.clients import measure_program

        instance = _initial_instance()
        # One channel: the program actually misses deadlines, so the
        # delay and miss-ratio comparisons are non-trivial.
        program = get_scheduler("pamad")(instance, 1).program
        n = 20_000
        scalar = measure_program(program, instance, num_requests=n, seed=seed)
        batch = batch_measure(program, instance, num_requests=n, seed=seed)

        delay_se = scalar.delay_stats.stderr * math.sqrt(2.0)
        assert batch.average_delay == pytest.approx(
            scalar.average_delay, abs=6.0 * delay_se + 1e-9
        )
        # Waits are bounded by the cycle length, so their variance is at
        # most (cycle/2)^2; the same 6-sigma logic applies.
        wait_se = (program.cycle_length / 2.0) / math.sqrt(n) * math.sqrt(2.0)
        assert batch.average_wait == pytest.approx(
            scalar.average_wait, abs=6.0 * wait_se
        )
        p = scalar.miss_ratio
        miss_se = math.sqrt(max(p * (1.0 - p), 1e-6) / n) * math.sqrt(2.0)
        assert batch.miss_ratio == pytest.approx(
            scalar.miss_ratio, abs=6.0 * miss_se
        )


def _outcome_key(outcome):
    """Deterministic identity of a cell outcome (wall times excluded)."""
    if isinstance(outcome, CellResult):
        point = outcome.point
        return (
            "ok",
            point.algorithm,
            point.channels,
            point.analytic_delay,
            point.simulated_delay,
            point.miss_ratio,
            point.cycle_length,
            outcome.attempts,
        )
    return (
        "fail",
        outcome.algorithm,
        outcome.channels,
        outcome.error_type,
        outcome.attempts,
        outcome.circuit_open,
    )


def _grid_specs(count=8, num_requests=120):
    instance = _initial_instance()
    specs = []
    for index in range(count):
        algorithm = "pamad" if index % 2 == 0 else "m-pb"
        specs.append(CellSpec(
            algorithm=algorithm,
            scheduler=get_scheduler(algorithm),
            channels=1 + index % 4,
            instance=instance,
            num_requests=num_requests,
            seed=4_000 + index,
        ))
    return specs


class TestChunkedSweepExecution:
    @settings(max_examples=12, deadline=None)
    @given(
        chunk_size=st.integers(1, 12),
        workers=st.integers(2, 4),
    )
    def test_chunked_pool_is_list_identical_to_serial(
        self, chunk_size, workers
    ):
        """The tentpole invariant: chunking and wave submission never
        change which outcomes come back, for every ``chunk_size``."""
        specs = _grid_specs()
        serial, _ = run_cells(specs, workers=1, mode="serial")
        policy = ExecutionPolicy(chunk_size=chunk_size)
        chunked, report = run_cells(
            specs, workers=workers, mode="thread", policy=policy
        )
        assert [_outcome_key(o) for o in chunked] == [
            _outcome_key(o) for o in serial
        ]
        assert report.chunk_size == chunk_size
        assert report.fallback is False

    def test_chunked_process_pool_matches_serial(self):
        specs = _grid_specs()
        serial, _ = run_cells(specs, workers=1, mode="serial")
        chunked, report = run_cells(
            specs,
            workers=3,
            mode="process",
            policy=ExecutionPolicy(chunk_size=3),
        )
        assert [_outcome_key(o) for o in chunked] == [
            _outcome_key(o) for o in serial
        ]
        assert report.mode == "process"

    def test_batch_backend_runs_and_is_recorded(self):
        specs = _grid_specs(count=4)
        policy = ExecutionPolicy(measure_backend="batch", chunk_size=2)
        outcomes, report = run_cells(
            specs, workers=2, mode="thread", policy=policy
        )
        assert all(isinstance(o, CellResult) for o in outcomes)
        assert report.measure_backend == "batch"
        scalar, _ = run_cells(specs, workers=1, mode="serial")
        # Different RNG streams: agreement is statistical, not exact.
        assert outcomes[0].point.simulated_delay != (
            scalar[0].point.simulated_delay
        ) or outcomes[0].point.simulated_delay == 0.0

    @pytest.mark.parametrize("chunk_size", [1, 4])
    def test_open_breaker_short_circuits_unsubmitted_cells(
        self, chunk_size
    ):
        """Satellite fix: cells behind an open circuit are never
        submitted to the pool — they fail structurally with zero
        attempts instead of burning pool work."""
        def explode(instance, channels):
            raise ValueError("scheduler crash")

        instance = _initial_instance()
        specs = [
            CellSpec(
                algorithm="explode",
                scheduler=explode,
                channels=1 + index % 3,
                instance=instance,
                num_requests=50,
                seed=index,
            )
            for index in range(12)
        ]
        policy = ExecutionPolicy(
            retries=0,
            backoff=0.0,
            breaker_threshold=3,
            chunk_size=chunk_size,
        )
        outcomes, report = run_cells(
            specs, workers=2, mode="thread", policy=policy
        )
        assert all(isinstance(o, CellFailure) for o in outcomes)
        skipped = [o for o in outcomes if o.attempts == 0]
        assert report.breaker_trips == 1
        assert report.short_circuited == len(skipped) > 0
        assert all(o.circuit_open for o in skipped)
        assert all(o.error_type == "CircuitOpen" for o in skipped)
        assert report.cell_failures == len(specs)

    def test_policy_validates_chunking_knobs(self):
        with pytest.raises(ReproError, match="chunk_size"):
            ExecutionPolicy(chunk_size=0)
        with pytest.raises(ReproError, match="measure_backend"):
            ExecutionPolicy(measure_backend="bogus")


class TestServeManifest:
    def test_live_manifest_records_serving_parameters_and_counters(self):
        from repro.engine.facade import BroadcastEngine

        instance = _initial_instance()
        trace = generate_mutation_trace(
            instance, seed=3, horizon=48, mutations=6, listeners=40
        )
        result = BroadcastEngine().live(
            instance,
            trace,
            budget=AMPLE_BUDGET,
            coalesce_window=2,
        )
        manifest = result.manifest.to_dict()
        assert "batch_listeners" not in manifest["parameters"]
        assert manifest["parameters"]["coalesce_window"] == 2
        counters = manifest["service"]["counters"]
        assert counters["batched_listeners"] == counters["listeners"] > 0
        assert counters["events_coalesced"] == 6
        assert counters["replans_avoided"] >= 0


def _storm_trace(instance, bursts, storm):
    """Retune storms: ``storm`` same-page retunes per burst.

    Deadlines alternate within the burst, so every raw event changes
    catalog state, yet the net of most bursts is a no-op (the final
    deadline equals the initial one): the churn shape the coalescing
    window exists to absorb.
    """
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
        horizon=t + 32, events=tuple(events), meta={"generator": "storm"}
    )


class TestServeWorkCounts:
    """Deterministic counts for what the serving fast paths save."""

    def test_coalescing_folds_retune_storms(self):
        instance = _initial_instance()
        trace = _storm_trace(instance, bursts=60, storm=6)

        def counters(window):
            return LiveBroadcastService(
                instance, trace, budget=12, coalesce_window=window
            ).run().counters

        raw, coalesced = counters(0), counters(6)
        assert raw["incremental_repairs"] == 360  # one per retune
        assert raw.get("replans_avoided", 0) == 0
        assert coalesced["incremental_repairs"] == 5
        assert coalesced["replans_avoided"] == 355

    def test_chunked_shm_sweep_cuts_pool_submissions(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        instance = instance_from_counts((80, 80, 80, 80), (4, 8, 16, 32))
        scheduler = get_scheduler("pamad")
        specs = [
            CellSpec(
                algorithm="pamad",
                scheduler=scheduler,
                channels=2 + (i % 7),
                instance=instance,
                num_requests=60,
                seed=9_000 + i,
            )
            for i in range(48)
        ]
        submissions = []
        submit = ProcessPoolExecutor.submit

        def counted(pool, *args, **kwargs):
            submissions.append(args[0])
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counted)

        def sweep(chunk_size, transport):
            submissions.clear()
            outcomes, report = run_cells(
                specs,
                workers=2,
                mode="process",
                policy=ExecutionPolicy(
                    chunk_size=chunk_size, transport=transport
                ),
            )
            assert report.fallback is False
            assert all(isinstance(o, CellResult) for o in outcomes)
            return len(submissions), report

        per_cell, _ = sweep(1, "pickle")
        chunked, report = sweep(8, "shm")
        assert per_cell == 48
        assert chunked == 6
        assert report.transport == "shm"


class TestServingCli:
    def test_live_flags_report_serving_counters(self, capsys):
        from repro.cli import main

        code = main([
            "live", "--sizes", "2,3,2", "--times", "2,4,8",
            "--budget", "12", "--seed", "3", "--mutations", "6",
            "--listeners", "30", "--coalesce-window", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving:" in out
        assert "re-plans avoided" in out

    def test_live_flags_match_event_by_event_output_shape(self, capsys):
        from repro.cli import main

        assert main([
            "live", "--sizes", "2,3,2", "--times", "2,4,8",
            "--budget", "12", "--seed", "3", "--mutations", "6",
            "--listeners", "30",
        ]) == 0
        plain = capsys.readouterr().out
        assert "serving:" not in plain
