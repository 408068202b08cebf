"""numpy-vectorised delay evaluation for large sweeps.

The scalar models in :mod:`repro.core.delay` are the reference
implementation — obvious, tested, and fast enough for single programs.
Sweeps evaluate thousands of (program, page) pairs, where Python-level
loops start to dominate; this module provides batch equivalents backed by
numpy, with property tests pinning exact agreement with the scalar code.

Entry points:

* :func:`program_delay_vector` — per-page average delays of one program
  in a single vectorised pass over the appearance table;
* :func:`batch_measure` — Monte-Carlo replay of many requests at once
  (the 3000-request measurement as one ``searchsorted`` call);
* :class:`AppearanceIndex` / :func:`batch_waits` — the packed
  appearance table behind both, reusable across calls.  Building the
  index reads the program's one memoised
  :meth:`~repro.core.program.BroadcastProgram.appearance_table`, so
  repeated measurements of the same program — a sweep cell measured
  under many seeds, or the live service replaying batches of listeners
  between re-plans — skip the sort-and-pack pass entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.delay import (
    page_average_delay_batch,
    paper_group_delay_batch,
)
from repro.core.errors import InvalidInstanceError, SimulationError
from repro.core.pages import ProblemInstance
from repro.core.program import BroadcastProgram

__all__ = [
    "program_delay_vector",
    "program_average_delay_fast",
    "paper_group_delay_batch",
    "AppearanceIndex",
    "batch_waits",
    "BatchMeasurement",
    "batch_measure",
]


def program_delay_vector(
    program: BroadcastProgram, instance: ProblemInstance
) -> dict[int, float]:
    """Per-page analytic average delay, vectorised.

    Exactly equals :func:`repro.core.delay.page_average_delay` for every
    page (tests assert this): it is
    :func:`repro.core.delay.page_average_delay_batch` over the
    instance's pages, keyed by page id.
    """
    pages = list(instance.pages())
    try:
        delays = page_average_delay_batch(
            program,
            [page.page_id for page in pages],
            [page.expected_time for page in pages],
        )
    except InvalidInstanceError as exc:
        raise SimulationError(str(exc)) from None
    return {
        page.page_id: float(delay) for page, delay in zip(pages, delays)
    }


def program_average_delay_fast(
    program: BroadcastProgram,
    instance: ProblemInstance,
    access_probabilities: Mapping[int, float] | None = None,
) -> float:
    """Vectorised equivalent of :func:`repro.core.delay.program_average_delay`."""
    delays = program_delay_vector(program, instance)
    if access_probabilities is None:
        return sum(delays.values()) / instance.n
    return sum(
        access_probabilities[page_id] * delay
        for page_id, delay in delays.items()
    )


@dataclass(frozen=True)
class AppearanceIndex:
    """The packed appearance table of one program, built once.

    ``slots`` holds every page's sorted appearance slots back to back
    (float64 — exact for slot indices, and what ``searchsorted`` wants);
    ``offsets[row] .. offsets[row + 1]`` delimits the row of
    ``page_ids[row]``.  Rows follow the page order the index was built
    with, so callers can address pages by row without dictionary
    lookups; :meth:`row_of` resolves ad-hoc page ids.

    Attributes:
        cycle_length: Cycle length of the indexed program.
        page_ids: Page id per row.
        slots: Flat, per-row-sorted appearance slots.
        offsets: Row boundaries into ``slots`` (``len(page_ids) + 1``).
    """

    cycle_length: int
    page_ids: np.ndarray
    slots: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_program(
        cls,
        program: BroadcastProgram,
        page_ids: "list[int] | tuple[int, ...] | None" = None,
    ) -> "AppearanceIndex":
        """Pack ``program``'s appearance table for the given pages.

        Args:
            program: The program to index.
            page_ids: Pages to include, in row order; defaults to every
                page the program broadcasts, sorted by id.  Pages absent
                from the program get empty rows (callers decide whether
                that is an error or an off-air observation).
        """
        memoise = page_ids is None
        if memoise:
            # The default-row index of one program is requested once per
            # batch by the live replay loop; key the memo on the
            # program's mutation stamp so in-place repairs invalidate it.
            memo = getattr(program, "_appearance_index_memo", None)
            if memo is not None and memo[0] == program.version:
                return memo[1]
        table = program.appearance_table()
        if memoise:
            ids, slots, offsets = table.page_ids, table.slots, table.offsets
        else:
            ids = np.asarray(list(page_ids), dtype=np.int64)
            slots, offsets = table.take(table.rows_of(ids), table.slots)
        index = cls(
            cycle_length=program.cycle_length,
            page_ids=ids,
            slots=slots.astype(np.float64),
            offsets=offsets,
        )
        if memoise:
            program._appearance_index_memo = (program.version, index)
        return index

    def row_of(self, page_id: int) -> int:
        """Row index of ``page_id``; raises when the page is not indexed."""
        rows = np.flatnonzero(self.page_ids == page_id)
        if rows.size == 0:
            raise SimulationError(
                f"page {page_id} is not in the appearance index"
            )
        return int(rows[0])

    def on_air(self) -> np.ndarray:
        """Boolean per row: does the page appear at all?"""
        return np.diff(self.offsets) > 0

    def rows_for(self, page_ids: np.ndarray) -> np.ndarray:
        """Resolve many page ids to row indices (``-1`` = not indexed).

        A memoised ``id -> row`` lookup table turns resolution into one
        gather when the id space is dense (the common case: page ids
        grow by insertion); sparse id spaces fall back to a
        ``searchsorted`` over the sorted ``page_ids``.
        """
        cached = getattr(self, "_row_lut_cache", None)
        if cached is None:
            lut = None
            if self.page_ids.size:
                top = int(self.page_ids.max())
                if (
                    int(self.page_ids.min()) >= 0
                    and top <= 4 * self.page_ids.size + 1024
                ):
                    lut = np.full(top + 2, -1, dtype=np.int64)
                    lut[self.page_ids] = np.arange(
                        self.page_ids.shape[0], dtype=np.int64
                    )
            cached = lut
            object.__setattr__(self, "_row_lut_cache", cached)
        page_ids = np.asarray(page_ids, dtype=np.int64)
        if cached is not None:
            top = cached.shape[0] - 2
            safe = np.where(
                (page_ids >= 0) & (page_ids <= top), page_ids, top + 1
            )
            return cached[safe]
        if not self.page_ids.size:
            return np.full(page_ids.shape[0], -1, dtype=np.int64)
        pos = np.searchsorted(self.page_ids, page_ids)
        pos = np.minimum(pos, self.page_ids.shape[0] - 1)
        return np.where(self.page_ids[pos] == page_ids, pos, -1)

    def _row_keys(self) -> "tuple[np.ndarray, np.ndarray]":
        """Per-slot integer sort keys, memoised on the (frozen) index.

        ``keys[k] = slot + row * cycle`` is globally sorted because each
        row's slots are sorted within ``[0, cycle)``, which lets
        :func:`batch_waits` resolve a whole mixed-page batch with one
        ``searchsorted`` instead of a Python loop per distinct page.
        ``firsts[row]`` is the flat position of the row's first slot
        (``-1`` for off-air rows).  Integer keys, not biased floats:
        ``arrival + row * cycle`` can round across a slot boundary,
        breaking bit-identity with the scalar kernel.
        """
        cached = getattr(self, "_row_keys_cache", None)
        if cached is None:
            counts = np.diff(self.offsets)
            row_of_slot = np.repeat(
                np.arange(counts.shape[0], dtype=np.int64), counts
            )
            keys = (
                self.slots.astype(np.int64)
                + row_of_slot * self.cycle_length
            )
            firsts = np.where(counts > 0, self.offsets[:-1], -1)
            cached = (keys, firsts)
            object.__setattr__(self, "_row_keys_cache", cached)
        return cached

    #: Dense wait tables are only worth their memory for the small
    #: serving programs the live replay loop indexes; past this many
    #: row x arrival cells :func:`batch_waits` binary-searches instead.
    _WAIT_LUT_MAX_CELLS = 1 << 16

    def _wait_lut(self) -> "np.ndarray | None":
        """Dense next-appearance table, memoised on the (frozen) index.

        ``lut[row * (cycle + 1) + c]`` is the slot a request arriving at
        any time with ``ceil(arrival) == c`` waits for — the row's first
        slot ``>= c``, or its first slot plus one cycle when the arrival
        is past the row's last appearance.  This turns the whole
        :func:`batch_waits` search into one gather; ``None`` when the
        table would be large (fall back to ``searchsorted``) or any row
        is empty (the search path owns the off-air error).
        """
        cached = getattr(self, "_wait_lut_cache", "unset")
        if isinstance(cached, str):  # sentinel: not computed yet
            counts = np.diff(self.offsets)
            cycle = self.cycle_length
            cells = counts.shape[0] * (cycle + 1)
            if (
                counts.size == 0
                or cells > self._WAIT_LUT_MAX_CELLS
                or bool((counts == 0).any())
            ):
                cached = None
            else:
                # One searchsorted over the whole row x arrival grid,
                # reusing the global integer keys (rebuilt per program
                # version — a Python per-row loop here would eat the
                # gain on mutation-heavy traces).
                keys, firsts = self._row_keys()
                rows_arange = np.arange(counts.shape[0], dtype=np.int64)
                cells = (
                    rows_arange[:, None] * cycle
                    + np.arange(cycle + 1, dtype=np.int64)[None, :]
                ).ravel()
                pos = np.searchsorted(keys, cells, side="left")
                row_of_cell = np.repeat(rows_arange, cycle + 1)
                wrapped = pos == self.offsets[row_of_cell + 1]
                nxt = self.slots[
                    np.where(wrapped, firsts[row_of_cell], pos)
                ]
                cached = np.where(wrapped, nxt + cycle, nxt)
            object.__setattr__(self, "_wait_lut_cache", cached)
        return cached


def batch_waits(
    index: AppearanceIndex,
    rows: np.ndarray,
    arrivals: np.ndarray,
) -> np.ndarray:
    """Waiting times for many (page row, arrival) pairs in one pass.

    Bit-identical to calling :meth:`~repro.core.program.
    BroadcastProgram.wait_time` per request: arrivals are reduced into
    ``[0, cycle)`` with ``fmod`` (exactly Python's ``%`` for the
    non-negative times used here), the next appearance is found with a
    single ``searchsorted`` over the whole batch, and the wrapped case
    computes ``(first_slot + cycle) - arrival`` in the scalar's
    operation order.  The search runs on integer keys ``slot + row *
    cycle`` against needles ``ceil(arrival) + row * cycle`` — exact
    arithmetic, and for integer slots ``slot >= arrival`` iff ``slot >=
    ceil(arrival)``, so positions match the scalar scan even for
    arrivals within one ULP of a slot boundary.  Rows must be on air
    (non-empty); callers mask off-air pages first.

    Args:
        index: The packed appearance table.
        rows: Row index (into ``index.page_ids``) per request.
        arrivals: Arrival time per request (any non-negative float).

    Returns:
        float64 wait per request, in request order.
    """
    arrivals = np.fmod(
        np.asarray(arrivals, dtype=np.float64), index.cycle_length
    )
    rows = np.asarray(rows, dtype=np.int64)
    lut = index._wait_lut()
    if lut is not None:
        # Dense fast path: one gather instead of a binary search.  The
        # table stores exact integer slot values (wrap pre-applied) as
        # float64, so the subtraction below is the scalar's final
        # operation verbatim — bit-identity holds along both paths.
        cells = np.ceil(arrivals).astype(np.int64)
        cells += rows * (index.cycle_length + 1)
        return lut[cells] - arrivals
    keys, firsts = index._row_keys()
    row_firsts = firsts[rows]
    if row_firsts.size and row_firsts.min() < 0:
        bad = rows[row_firsts < 0]
        raise SimulationError(
            f"page {int(index.page_ids[bad.min()])} does not appear in "
            "the program"
        )
    cycle = index.cycle_length
    needles = np.ceil(arrivals).astype(np.int64) + rows * cycle
    pos = np.searchsorted(keys, needles, side="left")
    wrapped = pos == index.offsets[rows + 1]
    next_slot = index.slots[np.where(wrapped, row_firsts, pos)]
    return np.where(wrapped, next_slot + cycle, next_slot) - arrivals


@dataclass(frozen=True)
class BatchMeasurement:
    """Vectorised Monte-Carlo measurement result.

    Attributes:
        average_delay: Mean excess wait (AvgD).
        average_wait: Mean total wait.
        miss_ratio: Fraction of requests past their expected time.
        num_requests: Requests replayed.
    """

    average_delay: float
    average_wait: float
    miss_ratio: float
    num_requests: int


def batch_measure(
    program: BroadcastProgram,
    instance: ProblemInstance,
    num_requests: int = 3000,
    seed: int = 0,
    access_probabilities: Mapping[int, float] | None = None,
    index: AppearanceIndex | None = None,
) -> BatchMeasurement:
    """Replay ``num_requests`` uniform-arrival requests in one numpy pass.

    Statistically identical to :func:`repro.sim.clients.measure_program`
    (same model, different RNG stream): pages drawn per the access model,
    arrivals uniform over the cycle, wait = time to the next appearance.

    Args:
        program: Program under test.
        instance: Pages and expected times.
        num_requests: Stream length.
        seed: numpy RNG seed.
        access_probabilities: Optional non-uniform page weights.
        index: Prebuilt :class:`AppearanceIndex` of ``program`` whose
            rows follow ``instance.pages()`` order.  Repeated
            measurements of the same program (one cell, many seeds)
            build it once and skip the per-call packing pass.
    """
    if num_requests <= 0:
        raise SimulationError(
            f"num_requests must be positive, got {num_requests}"
        )
    rng = np.random.default_rng(seed)
    cycle = program.cycle_length

    pages = list(instance.pages())
    page_ids = np.asarray([page.page_id for page in pages])
    expected = np.asarray(
        [page.expected_time for page in pages], dtype=np.float64
    )
    if index is None:
        index = AppearanceIndex.from_program(
            program, [page.page_id for page in pages]
        )
    elif index.page_ids.shape[0] != len(pages) or not np.array_equal(
        index.page_ids, page_ids
    ):
        raise SimulationError(
            "appearance index rows do not match the instance's pages; "
            "build it with AppearanceIndex.from_program(program, "
            "[p.page_id for p in instance.pages()])"
        )
    if access_probabilities is None:
        chosen = rng.integers(0, len(pages), size=num_requests)
    else:
        weights = np.asarray(
            [access_probabilities[int(pid)] for pid in page_ids]
        )
        weights = weights / weights.sum()
        chosen = rng.choice(len(pages), size=num_requests, p=weights)
    arrivals = rng.random(num_requests) * cycle

    waits = batch_waits(index, chosen, arrivals)
    excess = np.maximum(waits - expected[chosen], 0.0)
    return BatchMeasurement(
        average_delay=float(excess.mean()),
        average_wait=float(waits.mean()),
        miss_ratio=float((excess > 0).mean()),
        num_requests=num_requests,
    )
