"""Property tests pinning every fast path to its literal oracle.

Each production kernel must be observationally identical to the literal
reference it replaced — same grids, same metadata, same search result —
for every generated input.  The references for Algorithm-4 placement,
the sequential strawman and the staged OPT walk live here, as test
oracles only; the literal SUSC fill stays in :mod:`repro.core.susc`
because ABL4 times it.  Deterministic work-count tests pin what the
pruned searches and the live re-plan patcher save; wall time is
measured end to end by ``perfbench/``.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import opt
from repro.baselines.opt import brute_force_frequencies, opt_frequencies
from repro.core.backend import (
    active_backend,
    numba_available,
    set_backend,
)
from repro.core import pamad, susc
from repro.core.bounds import minimum_channels
from repro.core.delay import paper_group_delay
from repro.core.errors import SchedulingError, SearchSpaceError
from repro.core.frequencies import (
    frequencies_from_r,
    pamad_frequencies,
    pamad_frequencies_for,
    r_upper_bound,
)
from repro.core.intmath import ceil_div
from repro.core.pages import instance_from_counts
from repro.core.pamad import (
    place_by_frequency,
    place_sequential,
    schedule_pamad,
)
from repro.core.program import BroadcastProgram
from repro.core.susc import schedule_susc
from repro.live.catalog import LiveCatalog
from repro.live.replan import FastReplanner


# ----------------------------------------------------------------------
# Compute backends under test
# ----------------------------------------------------------------------

#: Both compiled backends; the numba leg skips when numba is absent so
#: the suite stays green either way (CI runs a dedicated numba job).
BACKENDS = [
    "python",
    pytest.param(
        "numba",
        marks=pytest.mark.skipif(
            not numba_available(), reason="numba not installed"
        ),
    ),
]


@contextmanager
def use_backend(name):
    """Run a block on ``name``, restoring the process-wide backend."""
    previous = active_backend()
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def instances(draw, max_groups=4, max_size=12, max_base=4, max_ratio=3):
    """Structurally valid instances on geometric expected-time ladders."""
    h = draw(st.integers(1, max_groups))
    base = draw(st.integers(1, max_base))
    ratio = draw(st.integers(2, max_ratio)) if h > 1 else 1
    sizes = draw(
        st.lists(st.integers(1, max_size), min_size=h, max_size=h)
    )
    times = [base * ratio**i for i in range(h)]
    return instance_from_counts(sizes, times)


@st.composite
def degraded_instances(draw, **instance_kwargs):
    """An instance plus a budget of 1..the SUSC requirement."""
    instance = draw(instances(**instance_kwargs))
    channels = draw(st.integers(1, minimum_channels(instance)))
    return instance, channels


# ----------------------------------------------------------------------
# Literal oracles: the cell-by-cell scans the kernels replaced
# ----------------------------------------------------------------------


class _CyclicFallbackCursor:
    """Amortised-linear cyclic fallback placement for one program build.

    Columns only fill up during a placement run, so a pointer-jumping
    array (path-compressed) links each known-full column to the next
    candidate.  The column chosen is exactly the one a naive cyclic scan
    would find: the first non-full column cyclically from the start.
    """

    def __init__(self, program: BroadcastProgram) -> None:
        self._program = program
        self._next_free = list(range(program.cycle_length + 1))

    def _find(self, column: int) -> int:
        """First non-full column at or after ``column`` (cycle = none)."""
        program = self._program
        next_free = self._next_free
        cycle = program.cycle_length
        root = column
        while True:
            while next_free[root] != root:
                root = next_free[root]
            if root >= cycle:
                break
            if program.free_channel_in_column(root) is not None:
                break
            next_free[root] = root + 1
        while next_free[column] != root:
            column, next_free[column] = next_free[column], root
        return root

    def place(self, page_id: int, start_column: int) -> bool:
        """Place in the first free cell scanning cyclically from a column."""
        program = self._program
        column = self._find(start_column)
        if column >= program.cycle_length:
            column = self._find(0)
            if column >= start_column:
                return False
        channel = program.free_channel_in_column(column)
        program.assign(channel, column, page_id)
        return True


def _empty_program(instance, frequencies, num_channels):
    """The Equation-8 grid both placement oracles fill, after the
    frequency-vector validation the kernels share."""
    if len(frequencies) != instance.h:
        raise SearchSpaceError(
            f"got {len(frequencies)} frequencies for h={instance.h} groups"
        )
    if any(s < 1 for s in frequencies):
        raise SearchSpaceError(
            f"frequencies must be >= 1, got {list(frequencies)}"
        )
    total_slots = sum(
        s * group.size for s, group in zip(frequencies, instance.groups)
    )
    cycle = ceil_div(total_slots, num_channels)
    return BroadcastProgram(num_channels=num_channels, cycle_length=cycle)


def _by_frequency(instance, frequencies):
    """(group, S_i) pairs, most frequent group first (stable)."""
    order = sorted(
        range(instance.h), key=lambda i: frequencies[i], reverse=True
    )
    return [(instance.groups[i], frequencies[i]) for i in order]


def place_by_frequency_oracle(instance, frequencies, num_channels):
    """Algorithm 4, literally: per copy, scan its window for a free cell,
    else fall back cyclically from the window start.

    Returns ``(program, window_misses)``.
    """
    program = _empty_program(instance, frequencies, num_channels)
    cycle = program.cycle_length
    window_misses = 0
    fallback = _CyclicFallbackCursor(program)
    for group, s_i in _by_frequency(instance, frequencies):
        for page in group.pages:
            for k in range(s_i):
                window_start = ceil_div(cycle * k, s_i)
                window_end = ceil_div(cycle * (k + 1), s_i)  # exclusive
                placed = False
                for column in range(window_start, min(window_end, cycle)):
                    channel = program.free_channel_in_column(column)
                    if channel is not None:
                        program.assign(channel, column, page.page_id)
                        placed = True
                        break
                if not placed:
                    window_misses += 1
                    placed = fallback.place(page.page_id, window_start)
                if not placed:
                    raise SchedulingError(
                        f"no free slot anywhere in the cycle for page "
                        f"{page.page_id} copy {k + 1}/{s_i}"
                    )
    return program, window_misses


def place_sequential_oracle(instance, frequencies, num_channels):
    """The ABL3 strawman, literally: pack copies into the earliest free
    cells from a monotone frontier, rescanning from column 0 once the
    frontier runs off the cycle."""
    program = _empty_program(instance, frequencies, num_channels)
    cycle = program.cycle_length
    cursor = 0  # column of the last successful placement
    fallback = _CyclicFallbackCursor(program)
    for group, s_i in _by_frequency(instance, frequencies):
        for page in group.pages:
            for _ in range(s_i):
                placed = False
                for column in range(cursor, cycle):
                    channel = program.free_channel_in_column(column)
                    if channel is not None:
                        program.assign(channel, column, page.page_id)
                        cursor = column
                        placed = True
                        break
                if not placed:
                    cursor = 0
                    placed = fallback.place(page.page_id, 0)
                if not placed:
                    raise SchedulingError(
                        f"grid full before placing page {page.page_id}"
                    )
    return program


def opt_frequencies_oracle(instance, num_channels, max_r=None):
    """The exhaustive staged walk :func:`opt_frequencies` prunes.

    Visits every ``r`` vector under Algorithm 3's per-stage bound in
    lexicographic order and keeps the first strict improvement beyond
    ``1e-12``.  Returns ``(r_values, frequencies, delay, leaves)``.
    """
    sizes = instance.group_sizes
    times = instance.expected_times
    h = instance.h
    best = {"r": (), "delay": math.inf, "leaves": 0}

    def descend(r_values, stage):
        if stage > h:
            best["leaves"] += 1
            delay = paper_group_delay(
                frequencies_from_r(r_values, h), sizes, times, num_channels
            )
            if delay < best["delay"] - 1e-12:
                best["delay"] = delay
                best["r"] = tuple(r_values)
            return
        bound = r_upper_bound(r_values, stage, sizes, times, num_channels)
        if max_r is not None:
            bound = min(bound, max_r)
        for candidate in range(1, bound + 1):
            r_values.append(candidate)
            descend(r_values, stage + 1)
            r_values.pop()

    descend([], 2)
    frequencies = frequencies_from_r(list(best["r"]), h)
    return best["r"], frequencies, best["delay"], best["leaves"]


def _exhaustive_objective(*args):
    """Equation (2) under another identity: ``brute_force_frequencies``
    then takes its exhaustive product walk instead of the bound."""
    return paper_group_delay(*args)


# ----------------------------------------------------------------------
# Placement and SUSC kernels: byte-identical output
# ----------------------------------------------------------------------


class TestPlacementEquality:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(case=degraded_instances())
    @settings(max_examples=60, deadline=None)
    def test_place_by_frequency_fast_matches_reference(
        self, backend, case
    ):
        instance, channels = case
        frequencies = pamad_frequencies(instance, channels).frequencies
        program, window_misses = place_by_frequency_oracle(
            instance, frequencies, channels
        )
        with use_backend(backend):
            fast = place_by_frequency(instance, frequencies, channels)
        assert fast.program.grid_rows() == program.grid_rows()
        assert fast.window_misses == window_misses

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(case=degraded_instances())
    @settings(max_examples=60, deadline=None)
    def test_place_sequential_fast_matches_reference(
        self, backend, case
    ):
        instance, channels = case
        frequencies = pamad_frequencies(instance, channels).frequencies
        program = place_sequential_oracle(instance, frequencies, channels)
        with use_backend(backend):
            fast = place_sequential(instance, frequencies, channels)
        assert fast.program.grid_rows() == program.grid_rows()
        assert fast.window_misses == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(instance=instances())
    @settings(max_examples=40, deadline=None)
    def test_susc_fast_matches_both_reference_probes(
        self, backend, instance
    ):
        with use_backend(backend):
            fast = schedule_susc(instance, validate=False)
        channels = fast.num_channels
        probes = {
            "naive": susc._get_available_slot,
            "cursored": functools.partial(
                susc._get_available_slot_cursored, cursors=[0] * channels
            ),
        }
        for name, probe in probes.items():
            program, first_slots = susc._susc_fill(
                instance, channels, probe
            )
            assert (
                fast.program.grid_rows() == program.grid_rows()
            ), f"fast kernel diverged from the {name} probe"
            assert fast.first_slots == first_slots

    def test_malformed_frequencies_match_the_oracle_errors(self):
        instance = instance_from_counts((2, 3), (4, 8))
        for frequencies in ((1,), (2, 0)):
            with pytest.raises(SearchSpaceError) as expected:
                place_by_frequency_oracle(instance, frequencies, 2)
            for kernel in (place_by_frequency, place_sequential):
                with pytest.raises(SearchSpaceError) as got:
                    kernel(instance, frequencies, 2)
                assert str(got.value) == str(expected.value)


# ----------------------------------------------------------------------
# Pruned searches: identical argmin, not just close
# ----------------------------------------------------------------------


class TestSearchEquality:
    """Budgets run from 1 channel up to the SUSC bound: at the bound the
    optimum delay is 0, so only the degraded budgets give the pruning a
    positive incumbent to prune against.  The staged search gathers
    every leaf of the first pruned stage before its first flush, so it
    can only prune with at least four groups."""

    @given(degraded_instances(max_groups=4, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_opt_pruning_is_exact(self, case):
        instance, channels = case
        r_values, frequencies, delay, _ = opt_frequencies_oracle(
            instance, channels
        )
        pruned = opt_frequencies(instance, channels)
        assert pruned.r_values == r_values
        assert pruned.frequencies == frequencies
        assert pruned.predicted_delay == delay

    @given(degraded_instances(max_groups=3, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_brute_force_pruning_is_exact(self, case):
        instance, channels = case
        exhaustive = brute_force_frequencies(
            instance, channels, cap=4, objective=_exhaustive_objective
        )
        pruned = brute_force_frequencies(instance, channels, cap=4)
        assert pruned.frequencies == exhaustive.frequencies
        assert pruned.predicted_delay == exhaustive.predicted_delay


@contextmanager
def count_leaves(monkeypatch):
    """Count Equation-(2) evaluations made through :mod:`repro.baselines.opt`,
    one per scalar call and one per row of each batch call."""
    counter = {"leaves": 0}
    scalar = opt.paper_group_delay
    batch = opt.paper_group_delay_batch

    def counted_scalar(*args, **kwargs):
        counter["leaves"] += 1
        return scalar(*args, **kwargs)

    def counted_batch(rows, *args, **kwargs):
        counter["leaves"] += len(rows)
        return batch(rows, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(opt, "paper_group_delay", counted_scalar)
        patch.setattr(opt, "paper_group_delay_batch", counted_batch)
        yield counter


class TestSearchWork:
    """The pruned searches must skip most of the tree, not only agree
    with it.  Leaf counts are deterministic, so they gate the bound's
    value without timing anything."""

    @pytest.mark.parametrize(
        "sizes, times, channels",
        [
            ((2, 3, 4, 5), (2, 4, 8, 16), 10),
            ((2, 3, 4, 5, 6), (2, 4, 8, 16, 32), 8),
        ],
    )
    def test_opt_evaluates_under_a_quarter_of_the_leaves(
        self, monkeypatch, sizes, times, channels
    ):
        instance = instance_from_counts(sizes, times)
        r_values, _, delay, oracle_leaves = opt_frequencies_oracle(
            instance, channels
        )
        with count_leaves(monkeypatch) as counter:
            pruned = opt_frequencies(instance, channels)
        assert pruned.r_values == r_values
        assert pruned.predicted_delay == delay
        assert 0 < counter["leaves"] < oracle_leaves / 4

    @pytest.mark.parametrize(
        "sizes, times, channels, cap",
        [
            ((3, 5, 7), (2, 4, 8), 4, 14),
            ((3, 5, 7, 9), (2, 4, 8, 16), 4, 9),
        ],
    )
    def test_brute_force_evaluates_under_half_the_leaves(
        self, monkeypatch, sizes, times, channels, cap
    ):
        instance = instance_from_counts(sizes, times)
        exhaustive = brute_force_frequencies(
            instance, channels, cap=cap, objective=_exhaustive_objective
        )
        with count_leaves(monkeypatch) as counter:
            # The patched module-level objective is the one the bound
            # recognises, so passing it keeps the pruned path.
            pruned = brute_force_frequencies(
                instance, channels, cap=cap, objective=opt.paper_group_delay
            )
        assert pruned.frequencies == exhaustive.frequencies
        # The exhaustive walk evaluates every vector: cap^(h-1).
        assert 0 < counter["leaves"] < cap ** (instance.h - 1) / 2


# ----------------------------------------------------------------------
# Integer ceiling division: exact where float ceil is not
# ----------------------------------------------------------------------


class TestCeilDiv:
    @given(st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_rational_ceiling(self, a, b):
        assert ceil_div(a, b) == math.ceil(Fraction(a, b))

    def test_exact_beyond_float_precision(self):
        # 2**53 + 1 is not representable as a float, so a / b rounds
        # down a whole unit and math.ceil(a / b) is off by one.
        # ceil_div must stay exact at any magnitude.
        a, b = 2**53 + 1, 2
        assert ceil_div(a, b) == 2**52 + 1
        assert math.ceil(a / b) == 2**52  # the float trap being avoided

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            ceil_div(1, 0)


# ----------------------------------------------------------------------
# Appearance-table caches on BroadcastProgram
# ----------------------------------------------------------------------


def _small_program() -> BroadcastProgram:
    # Taut budget on a steep ladder: group 1 pages air 4x per cycle, so
    # there is a page with multiple appearances to clear one copy of.
    instance = instance_from_counts((3, 4), (2, 16))
    return schedule_pamad(instance, 2).program


class TestAppearanceCaches:
    def test_cached_slots_and_gaps_match_cold_recompute(self):
        program = _small_program()
        warm_slots = {
            page_id: program.appearance_slots(page_id)
            for page_id in program.page_ids()
        }
        warm_gaps = {
            page_id: program.cyclic_gaps(page_id)
            for page_id in program.page_ids()
        }
        program._table = None  # drop the memoised appearance table
        for page_id in program.page_ids():
            assert program.appearance_slots(page_id) == warm_slots[page_id]
            assert program.cyclic_gaps(page_id) == warm_gaps[page_id]

    def test_mutation_invalidates_cached_tables(self):
        program = _small_program()
        counts = program.page_counts()
        page_id = max(counts, key=counts.get)  # keeps >=1 copy on air
        assert counts[page_id] > 1
        before = program.appearance_slots(page_id)
        program.cyclic_gaps(page_id)  # populate both memo tables
        ref = program.appearances(page_id)[0]
        program.clear(ref.channel, ref.slot)
        # The memoised answers must match a ground-truth recompute from
        # the raw references, not the stale pre-mutation tables.
        truth = sorted({r.slot for r in program.appearances(page_id)})
        assert truth != before
        assert program.appearance_slots(page_id) == truth
        assert sum(program.cyclic_gaps(page_id)) == program.cycle_length

    def test_returned_lists_do_not_alias_the_cache(self):
        program = _small_program()
        page_id = next(iter(program.page_ids()))
        slots = program.appearance_slots(page_id)
        slots.append(10**9)
        gaps = program.cyclic_gaps(page_id)
        gaps.append(10**9)
        assert 10**9 not in program.appearance_slots(page_id)
        assert 10**9 not in program.cyclic_gaps(page_id)


# ----------------------------------------------------------------------
# Structural copy / from_grid
# ----------------------------------------------------------------------


class TestProgramCopy:
    def test_copy_is_equal_and_independent(self):
        program = _small_program()
        clone = program.copy()
        assert clone.grid_rows() == program.grid_rows()
        # Mutating the clone must not leak back into the original.
        ref = clone.appearances(next(iter(clone.page_ids())))[0]
        clone.clear(ref.channel, ref.slot)
        assert program.grid_rows() != clone.grid_rows()
        assert program._grid[ref.channel][ref.slot] is not None

    def test_from_grid_round_trips(self):
        program = _small_program()
        rebuilt = BroadcastProgram.from_grid(program.grid_rows())
        assert rebuilt.grid_rows() == program.grid_rows()
        for page_id in program.page_ids():
            assert rebuilt.appearances(page_id) == program.appearances(
                page_id
            )

    def test_from_grid_rejects_the_free_cell_marker(self):
        from repro.core.errors import InvalidInstanceError

        with pytest.raises(InvalidInstanceError, match="-1 is reserved"):
            BroadcastProgram.from_grid([[-1, 2]])
        with pytest.raises(InvalidInstanceError, match="row 1"):
            BroadcastProgram.from_grid([[1, None], [None, -1]])


class TestPackedGridMirror:
    @staticmethod
    def _as_packed_rows(program):
        return [
            [-1 if cell is None else cell for cell in row]
            for row in program.grid_rows()
        ]

    def test_mirror_matches_grid(self):
        program = _small_program()
        assert program.packed_grid().tolist() == self._as_packed_rows(
            program
        )

    def test_mirror_tracks_mutations(self):
        program = _small_program()
        packed = program.packed_grid()  # materialise before mutating
        page_id = max(program.page_counts())
        ref = program.appearances(page_id)[0]
        program.clear(ref.channel, ref.slot)
        assert packed[ref.channel, ref.slot] == -1
        program.assign(ref.channel, ref.slot, page_id)
        assert packed[ref.channel, ref.slot] == page_id
        assert packed.tolist() == self._as_packed_rows(program)

    def test_copy_does_not_alias_the_mirror(self):
        program = _small_program()
        program.packed_grid()
        clone = program.copy()
        page_id = max(clone.page_counts())
        ref = clone.appearances(page_id)[0]
        clone.clear(ref.channel, ref.slot)
        assert program.packed_grid()[ref.channel, ref.slot] == page_id
        assert clone.packed_grid()[ref.channel, ref.slot] == -1


# ----------------------------------------------------------------------
# Live re-plan patch path
# ----------------------------------------------------------------------


def _catalog(sizes, times) -> LiveCatalog:
    pages: dict[int, int] = {}
    page_id = 1
    for size, expected in zip(sizes, times):
        for _ in range(size):
            pages[page_id] = expected
            page_id += 1
    return LiveCatalog(pages)


def _remember(replanner, catalog, budget, schedule) -> None:
    replanner.remember(
        catalog=catalog.pages(),
        times=catalog.to_instance().expected_times,
        frequencies=schedule.assignment.frequencies,
        cycle=schedule.program.cycle_length,
        budget=budget,
    )


class TestFastReplanner:
    SIZES = (3, 4, 6, 10)
    TIMES = (4, 8, 16, 32)
    BUDGET = 4

    def _planned(self):
        catalog = _catalog(self.SIZES, self.TIMES)
        schedule = schedule_pamad(catalog.to_instance(), self.BUDGET)
        replanner = FastReplanner()
        _remember(replanner, catalog, self.BUDGET, schedule)
        return catalog, schedule, replanner

    def test_patch_is_a_valid_plan_for_the_new_catalog(self):
        catalog, schedule, replanner = self._planned()
        mutated = catalog.copy()
        new_page = max(catalog.pages()) + 1
        mutated.insert(new_page, self.TIMES[-1])
        patched = replanner.try_patch(mutated.pages(), schedule.program)
        assert patched is not None
        # Exactly the mutated catalog's pages, at the Algorithm-3
        # frequencies for the new group sizes, on the Equation-8 cycle.
        instance = mutated.to_instance()
        frequencies = pamad_frequencies(instance, self.BUDGET).frequencies
        assert patched.cycle_length == schedule.program.cycle_length
        counts = patched.page_counts()
        assert set(counts) == set(mutated.pages())
        for page_id, expected in mutated.pages().items():
            group = instance.expected_times.index(expected)
            assert counts[page_id] == frequencies[group]

    def test_patch_is_deterministic(self):
        grids = []
        for _ in range(2):
            catalog, schedule, replanner = self._planned()
            mutated = catalog.copy()
            mutated.insert(max(catalog.pages()) + 1, self.TIMES[-1])
            patched = replanner.try_patch(
                mutated.pages(), schedule.program
            )
            grids.append(patched.grid_rows())
        assert grids[0] == grids[1]

    def test_unchanged_catalog_returns_program_as_is(self):
        catalog, schedule, replanner = self._planned()
        patched = replanner.try_patch(catalog.pages(), schedule.program)
        assert patched is schedule.program

    def test_two_rung_change_is_ineligible(self):
        catalog, schedule, replanner = self._planned()
        mutated = catalog.copy()
        base = max(catalog.pages())
        mutated.insert(base + 1, self.TIMES[-1])
        mutated.insert(base + 2, self.TIMES[-2])
        assert (
            replanner.try_patch(mutated.pages(), schedule.program) is None
        )

    def test_new_rung_is_ineligible(self):
        catalog, schedule, replanner = self._planned()
        mutated = catalog.copy()
        mutated.insert(max(catalog.pages()) + 1, 64)
        assert (
            replanner.try_patch(mutated.pages(), schedule.program) is None
        )

    def test_cycle_growth_is_ineligible(self):
        # Enough inserts into one rung eventually bump the Equation-8
        # cycle; the patcher must hand back to the full re-plan then.
        catalog, schedule, replanner = self._planned()
        state = replanner.state
        mutated = catalog.copy()
        base = max(catalog.pages())
        sizes = list(self.SIZES)
        grew = False
        for extra in range(1, 40):
            mutated.insert(base + extra, self.TIMES[-1])
            sizes[-1] += 1
            frequencies = pamad_frequencies_for(
                tuple(sizes), self.TIMES, self.BUDGET
            ).frequencies
            cycle = ceil_div(
                sum(s * p for s, p in zip(frequencies, sizes)),
                self.BUDGET,
            )
            if cycle != state.cycle:
                grew = True
                break
        assert grew, "cycle never grew; test configuration is too slack"
        replanner.state = state
        # len(changed) is still 1 (one rung), but the cycle differs.
        assert (
            replanner.try_patch(mutated.pages(), schedule.program) is None
        )

    @pytest.mark.parametrize(
        "sizes, budget", [((3, 4, 6, 10), 4), ((6, 10, 14, 20), 6)]
    )
    def test_rung_toggle_is_patched_every_step(
        self, monkeypatch, sizes, budget
    ):
        # One page toggling in and out of the slowest rung: the degraded
        # mutation the patch path exists for.  Every step must patch,
        # and none may fall through to a full PAMAD re-plan.
        catalog = _catalog(sizes, self.TIMES)
        schedule = schedule_pamad(catalog.to_instance(), budget)
        replanner = FastReplanner()
        _remember(replanner, catalog, budget, schedule)
        mutated = catalog.copy()
        mutated.insert(max(catalog.pages()) + 1, self.TIMES[-1])
        full_plans = []
        monkeypatch.setattr(
            pamad,
            "schedule_pamad",
            lambda *args, **kwargs: full_plans.append(args),
        )
        program = schedule.program
        for step in range(16):
            target = mutated if step % 2 == 0 else catalog
            program = replanner.try_patch(target.pages(), program)
            assert program is not None, f"step {step} was not patched"
            assert set(program.page_counts()) == set(target.pages())
        assert full_plans == []

    def test_no_snapshot_is_ineligible(self):
        catalog, schedule, _ = self._planned()
        fresh = FastReplanner()
        assert (
            fresh.try_patch(catalog.pages(), schedule.program) is None
        )
        fresh.invalidate()
        assert fresh.state is None


class TestPackedPatchEquality:
    """The packed-array patcher must equal the cell-by-cell oracle."""

    @given(
        sizes=st.lists(st.integers(1, 10), min_size=2, max_size=4),
        budget=st.integers(1, 4),
        drop=st.booleans(),
        extra=st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_patch_matches_reference_oracle(
        self, sizes, budget, drop, extra
    ):
        times = tuple(4 * 2**i for i in range(len(sizes)))
        instance = instance_from_counts(sizes, times)
        budget = min(budget, minimum_channels(instance))
        schedule = schedule_pamad(instance, budget)
        program = schedule.program
        frequencies = schedule.assignment.frequencies
        # Mutate the last rung: optionally drop one page, add `extra`.
        rung = [
            page.page_id
            for page in instance.pages()
            if page.expected_time == times[-1]
        ]
        new_rung = set(rung[1:]) if drop and len(rung) > 1 else set(rung)
        top = max(page.page_id for page in instance.pages())
        new_rung.update(top + 1 + i for i in range(extra))
        new_sizes = tuple(sizes[:-1]) + (len(new_rung),)
        new_frequencies = pamad_frequencies_for(
            new_sizes, times, budget
        ).frequencies
        copies = new_frequencies[-1]
        clear = set(rung) | new_rung
        reference = FastReplanner._patch_reference(
            program, clear, new_rung, copies, budget
        )
        packed = FastReplanner._patch_packed(
            program, clear, new_rung, copies
        )
        if packed is NotImplemented:
            return  # overflow regime: dispatch uses the oracle directly
        if reference is None:
            assert packed is None
        else:
            assert packed.grid_rows() == reference.grid_rows()

    def test_empty_rung_patch_just_clears(self):
        instance = instance_from_counts((2, 3), (4, 8))
        program = schedule_pamad(instance, 2).program
        rung = {
            page.page_id
            for page in instance.pages()
            if page.expected_time == 8
        }
        patched = FastReplanner._patch_packed(program, rung, set(), 1)
        assert patched is not NotImplemented
        assert set(patched.page_counts()) == (
            set(program.page_counts()) - rung
        )
