"""The Longest-Wait-First pull baseline against its literal oracle.

:func:`repro.live.baseline.replay_pull_lwf` scores pages with a running
count and arrival sum and re-scores near-ties with the literal sum.  The
oracle below is the literal rule itself: every slot, every channel,
re-sum every pending request of every page.  The two must agree field
for field, ``total_wait`` compared with ``==``, on traces built to force
exact ties (integer arrivals, equal arrival multisets on different
pages), on fractional arrivals whose sums round, and across removals,
re-inserts and requests for unknown pages.
"""

from __future__ import annotations

from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.core.pages import ProblemInstance, instance_from_counts
from repro.live.baseline import PullOutcome, replay_pull_lwf
from repro.live.catalog import LiveCatalog
from repro.live.mutations import MutationEvent, MutationTrace
from repro.workload.mutations import generate_mutation_trace


def replay_pull_lwf_literal(
    initial: ProblemInstance | Mapping[int, int],
    trace: MutationTrace,
    *,
    budget: int = 1,
) -> PullOutcome:
    """The literal slot loop: O(pending requests) per page per channel."""
    if budget < 1:
        raise SimulationError(f"budget must be >= 1, got {budget}")
    pages = set(LiveCatalog(initial).pages())
    listeners = served = misses = broadcasts = 0
    total_wait = 0.0
    pending: dict[int, list[tuple[float, int]]] = {}
    events = iter(trace.events)
    upcoming = next(events, None)
    for slot in range(trace.horizon + 1):
        while upcoming is not None and upcoming.time <= slot:
            event = upcoming
            upcoming = next(events, None)
            if event.kind == "listener":
                listeners += 1
                if event.page_id in pages:
                    pending.setdefault(event.page_id, []).append(
                        (event.time, event.expected_time)
                    )
                else:
                    misses += 1
            elif event.kind == "page_insert":
                pages.add(event.page_id)
            elif event.kind == "page_remove":
                pages.discard(event.page_id)
                misses += len(pending.pop(event.page_id, ()))
        if slot == trace.horizon:
            break
        for _ in range(budget):
            if not pending:
                break
            chosen = max(
                pending,
                key=lambda pid: (
                    sum(slot - arrival for arrival, _ in pending[pid]),
                    -pid,
                ),
            )
            broadcasts += 1
            for arrival, deadline in pending.pop(chosen):
                wait = slot - arrival
                served += 1
                total_wait += wait
                if wait > deadline:
                    misses += 1
    misses += sum(len(waiting) for waiting in pending.values())
    return PullOutcome(
        listeners=listeners,
        served=served,
        misses=misses,
        broadcasts=broadcasts,
        total_wait=total_wait,
    )


def assert_identical(catalog, trace, budget):
    fast = replay_pull_lwf(catalog, trace, budget=budget)
    literal = replay_pull_lwf_literal(catalog, trace, budget=budget)
    assert fast == literal
    assert fast.total_wait == literal.total_wait
    assert type(fast.total_wait) is type(literal.total_wait)


@st.composite
def pull_cases(draw):
    """A small catalog, a trace full of ties and churn, and a budget."""
    horizon = draw(st.integers(2, 20))
    catalog = {
        pid: draw(st.sampled_from((1, 2, 4, 8)))
        for pid in range(1, draw(st.integers(1, 5)) + 1)
    }
    # Page ids the trace may touch: the catalog, two inserts and one id
    # that is never inserted (its listeners miss immediately).
    universe = sorted(catalog) + [50, 51, 99]
    integral = st.integers(0, horizon - 1).map(float)
    tenths = st.integers(0, horizon * 10 - 1).map(lambda k: k / 10)
    arrival = st.one_of(integral, tenths) if draw(st.booleans()) else integral
    events: dict[tuple, MutationEvent] = {}

    def add(event: MutationEvent) -> None:
        events[(event.time, event.kind, event.page_id)] = event

    for _ in range(draw(st.integers(0, 60))):
        add(MutationEvent(
            time=draw(arrival),
            kind="listener",
            page_id=draw(st.sampled_from(universe)),
            expected_time=draw(st.integers(1, 12)),
        ))
    # Equal arrival multisets on different pages force exact key ties.
    for _ in range(draw(st.integers(0, 3))):
        times = draw(st.lists(arrival, min_size=1, max_size=6, unique=True))
        for page_id in draw(
            st.lists(st.sampled_from(universe), min_size=2, max_size=3,
                     unique=True)
        ):
            for time in times:
                add(MutationEvent(
                    time=time, kind="listener", page_id=page_id,
                    expected_time=draw(st.integers(1, 12)),
                ))
    # Equal exact sums from different tenths (x + y == (x+d) + (y-d)):
    # the running and the literal sums round differently, so the choice
    # between such pages rests on the literal re-score.
    tenth = st.integers(0, horizon * 10 - 1)
    for _ in range(draw(st.integers(0, 3))):
        x, y, d = draw(tenth), draw(tenth), draw(st.integers(1, 9))
        first, second = draw(
            st.lists(st.sampled_from(universe), min_size=2, max_size=2,
                     unique=True)
        )
        if y - d < 0 or x + d >= horizon * 10:
            continue
        for page_id, times in ((first, (x, y)), (second, (x + d, y - d))):
            for k in times:
                add(MutationEvent(
                    time=k / 10, kind="listener", page_id=page_id,
                    expected_time=draw(st.integers(1, 12)),
                ))
    # Removals (often of pages with pending requests), re-inserts of
    # removed ids, inserts of new ids and retunes.
    slot = st.integers(0, horizon - 1).map(float)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ("page_insert", "page_remove", "page_retune")
        ))
        add(MutationEvent(
            time=draw(slot),
            kind=kind,
            page_id=draw(st.sampled_from(universe)),
            expected_time=(
                None if kind == "page_remove"
                else draw(st.sampled_from((1, 2, 4, 8)))
            ),
        ))
    trace = MutationTrace(horizon=horizon, events=tuple(events.values()))
    return catalog, trace, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(case=pull_cases())
def test_fast_replay_matches_literal_rule(case):
    catalog, trace, budget = case
    assert_identical(catalog, trace, budget)


def test_many_pages_with_identical_arrivals_tie_on_page_id():
    # Every page sees the same integer arrivals, so every key ties
    # exactly and only the smaller-page-id rule decides; the deadlines
    # differ per page, so serving the wrong page changes the misses.
    catalog = {pid: 4 for pid in range(1, 9)}
    events = [
        MutationEvent(
            time=float(t), kind="listener", page_id=pid, expected_time=pid
        )
        for pid in catalog
        for t in range(0, 12, 3)
    ]
    trace = MutationTrace(horizon=16, events=tuple(events))
    for budget in (1, 2, 3, 4):
        assert_identical(catalog, trace, budget)


def test_seeded_ladder_trace_at_scale():
    instance = instance_from_counts((10,) * 6, (4, 8, 16, 32, 64, 128))
    trace = generate_mutation_trace(
        instance, seed=3, horizon=128, mutations=60, listeners=20_000
    )
    for budget in (1, 4):
        assert_identical(instance, trace, budget)
