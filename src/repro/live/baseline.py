"""Longest Wait First — the online *pull* baseline for the live service.

The push runtime answers "how well can a pre-planned cyclic program
absorb churn?".  The natural alternative is to plan nothing: run a pull
server that hears every request and, each slot, broadcasts on each of
its channels the page whose pending requests have waited longest in
aggregate — Longest Wait First, the classic online broadcast-scheduling
heuristic analysed by Chekuri, Im & Moseley.  One broadcast satisfies
*all* pending requests for that page (the broadcast economy of scale the
paper builds on).

EXT11 replays the same mutation trace through both systems and compares
deadline-miss rates: LWF reacts instantly to demand but offers no
deadline guarantee, while the push program guarantees the Theorem-3.1
SLO for every admitted page at the price of rejecting load it cannot
promise.

The replay is exact and deterministic: slot-by-slot, FIFO within slots,
no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import SimulationError
from repro.core.pages import ProblemInstance
from repro.live.catalog import LiveCatalog
from repro.live.mutations import MutationTrace

__all__ = ["PullOutcome", "replay_pull_lwf"]


@dataclass(frozen=True, slots=True)
class PullOutcome:
    """Outcome of :func:`replay_pull_lwf` on one trace.

    Attributes:
        listeners: Requests replayed.
        served: Requests answered within the horizon.
        misses: Requests that waited past their promised deadline (or
            were never answered / targeted a page not in the catalog).
        broadcasts: Page transmissions performed.
        total_wait: Summed wait of the served requests, in slots.
    """

    listeners: int
    served: int
    misses: int
    broadcasts: int
    total_wait: float

    @property
    def miss_rate(self) -> float:
        return self.misses / self.listeners if self.listeners else 0.0

    @property
    def average_wait(self) -> float:
        return self.total_wait / self.served if self.served else 0.0

    def as_dict(self) -> dict:
        return {
            "policy": "pull-lwf",
            "listeners": self.listeners,
            "served": self.served,
            "misses": self.misses,
            "miss_rate": round(self.miss_rate, 6),
            "broadcasts": self.broadcasts,
            "average_wait": round(self.average_wait, 6),
        }


def _literal_key(
    pending: dict[int, list[tuple[float, int]]], page_id: int, slot: int
) -> tuple[float, int]:
    """The rule's key for one page: aggregate wait, then smaller id."""
    return (sum(slot - arrival for arrival, _ in pending[page_id]), -page_id)


def replay_pull_lwf(
    initial: ProblemInstance | Mapping[int, int],
    trace: MutationTrace,
    *,
    budget: int = 1,
) -> PullOutcome:
    """Replay ``trace`` through a Longest-Wait-First pull server.

    Each integer slot ``s`` the server broadcasts, on each of its
    ``budget`` channels, the page maximising the aggregate waiting time
    of its pending requests (ties broken by smaller page id); the
    broadcast serves every pending request for that page with wait
    ``s - arrival``.  Catalog mutations apply unconditionally (a pull
    server has no admission story): removals drop the page's pending
    requests as misses, requests for unknown pages miss immediately, and
    requests still pending at the horizon miss.

    Each page keeps a running count and arrival sum, so scoring a page
    costs O(1) rather than a pass over its pending requests; the few
    pages whose running key lies within its proven rounding bound of the
    best are re-scored with the literal sum, which keeps every choice,
    and so the whole outcome, identical to the literal rule.

    Args:
        initial: Catalog on air at ``t=0``.
        trace: The same mutation/listener timeline the push service
            replays.
        budget: Number of broadcast channels.

    Returns:
        A :class:`PullOutcome` with miss and wait accounting judged
        against each listener's *promised* deadline.
    """
    if budget < 1:
        raise SimulationError(f"budget must be >= 1, got {budget}")
    catalog = LiveCatalog(initial)
    pages = set(catalog.pages())

    listeners = served = misses = broadcasts = 0
    total_wait = 0.0
    # page_id -> list of (arrival, promised deadline), arrival order,
    # plus the running float sum of those arrivals (same insertion).
    pending: dict[int, list[tuple[float, int]]] = {}
    arrival_sums: dict[int, float] = {}

    events = iter(trace.events)
    upcoming = next(events, None)

    for slot in range(trace.horizon + 1):
        # 1. Apply every event with time <= slot (FIFO within the slot).
        while upcoming is not None and upcoming.time <= slot:
            event = upcoming
            upcoming = next(events, None)
            if event.kind == "listener":
                listeners += 1
                page_id = event.page_id
                if page_id in pages:
                    waiting = pending.get(page_id)
                    if waiting is None:
                        pending[page_id] = [
                            (event.time, event.expected_time)
                        ]
                        arrival_sums[page_id] = float(event.time)
                    else:
                        waiting.append((event.time, event.expected_time))
                        arrival_sums[page_id] += event.time
                else:
                    misses += 1
            elif event.kind == "page_insert":
                pages.add(event.page_id)
            elif event.kind == "page_remove":
                pages.discard(event.page_id)
                misses += len(pending.pop(event.page_id, ()))
                arrival_sums.pop(event.page_id, None)
            # page_retune: promised deadlines travel with the listeners.
        if slot == trace.horizon or not pending:
            continue
        # 2. Broadcast the longest-aggregate-wait pages on each channel.
        #
        # The rule's key is the literal left-to-right float sum
        # L = sum(slot - a_i) over a page's n pending arrivals; this loop
        # ranks by F = n*slot - A instead, A being the running float sum
        # of the arrivals.  Error bound, with u = 2**-53,
        # gamma_n = n*u / (1 - n*u), S = n*slot - sum(a_i) exact, and
        # 0 <= a_i <= slot (arrivals are non-negative and applied no
        # later than their slot):
        #   |L - S| <= gamma_n * sum(slot - a_i) <= gamma_n * n * slot
        #     (each term rounds once, then recursive summation; Python
        #     3.12's compensated float sum() is tighter still);
        #   |F - S| <= u * |n*slot - A| + |A - sum(a_i)|
        #          <= (u + (1 + u) * gamma_{n-1}) * n * slot
        #          <= gamma_n * n * slot
        #     (n*slot converts to float exactly below 2**53, A is a
        #     recursive sum, the subtraction rounds once).
        # So |F - L| <= 2 * gamma_n * n * slot < 3 * n*n * slot * u.
        # ``slack`` = 8 * n_max**2 * slot * u covers that for every page,
        # with room for the rounding of the threshold itself.  A page
        # whose F trails the top F by more than 2 * slack therefore has
        # a literal key strictly below the top page's; the pages within
        # it are re-scored with the literal key (ties to the smaller id),
        # so the chosen page is exactly the one the literal rule picks.
        ranked = sorted(
            (
                (len(waiting) * slot - arrival_sums[page_id], page_id)
                for page_id, waiting in pending.items()
            ),
            reverse=True,
        )
        longest = max(len(waiting) for waiting in pending.values())
        slack = longest * longest * slot * 2.0**-50
        for _ in range(min(budget, len(ranked))):
            floor = ranked[0][0] - 2.0 * slack
            near = 1
            while near < len(ranked) and ranked[near][0] >= floor:
                near += 1
            pick = 0
            if near > 1:
                pick = max(
                    range(near),
                    key=lambda k: _literal_key(pending, ranked[k][1], slot),
                )
            chosen = ranked.pop(pick)[1]
            del arrival_sums[chosen]
            broadcasts += 1
            for arrival, deadline in pending.pop(chosen):
                wait = slot - arrival
                served += 1
                total_wait += wait
                if wait > deadline:
                    misses += 1

    # 3. Whatever is still pending at the horizon never got served.
    misses += sum(len(waiting) for waiting in pending.values())

    return PullOutcome(
        listeners=listeners,
        served=served,
        misses=misses,
        broadcasts=broadcasts,
        total_wait=total_wait,
    )
