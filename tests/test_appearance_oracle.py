"""The packed appearance derivation against from-scratch oracles.

:class:`~repro.core.program.BroadcastProgram` answers every appearance
query from one memoised array derivation over its packed grid, and
:func:`~repro.core.validate.validate_program` checks a program in one
array pass over it.  The oracles here read only the raw grid rows:
the literal per-page validation loop and a per-cell appearance scan.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.analysis.vectorized import AppearanceIndex
from repro.core.pages import ProblemInstance, instance_from_counts
from repro.core.program import BroadcastProgram, SlotRef
from repro.core.susc import schedule_susc
from repro.core.validate import (
    ValidationReport,
    Violation,
    ViolationKind,
    validate_program,
)


def scan_appearances(program: BroadcastProgram) -> dict[int, list[SlotRef]]:
    """Every page's cells in (slot, channel) order, from the raw rows."""
    cells: dict[int, list[SlotRef]] = {}
    rows = program.grid_rows()
    for slot in range(program.cycle_length):
        for channel, row in enumerate(rows):
            if row[slot] is not None:
                cells.setdefault(row[slot], []).append(
                    SlotRef(slot=slot, channel=channel)
                )
    return cells


def scan_slots(program: BroadcastProgram) -> dict[int, list[int]]:
    return {
        page_id: sorted({ref.slot for ref in refs})
        for page_id, refs in scan_appearances(program).items()
    }


def literal_gaps(slots: list[int], cycle: int) -> list[int]:
    if len(slots) == 1:
        return [cycle]
    gaps = [b - a for a, b in zip(slots, slots[1:])]
    gaps.append(cycle - slots[-1] + slots[0])
    return gaps


def validate_program_literal(
    program: BroadcastProgram, instance: ProblemInstance
) -> ValidationReport:
    """The per-page Section 3.1 loop over a from-scratch appearance scan."""
    slots_of = scan_slots(program)
    violations: list[Violation] = []
    max_excess = 0.0
    known_ids = {page.page_id for page in instance.pages()}
    for extra in sorted(set(slots_of) - known_ids):
        violations.append(
            Violation(
                kind=ViolationKind.UNKNOWN_PAGE,
                page_id=extra,
                detail="appears in the program but not in the instance",
            )
        )
    for page in instance.pages():
        slots = slots_of.get(page.page_id, [])
        if not slots:
            violations.append(
                Violation(
                    kind=ViolationKind.MISSING_PAGE,
                    page_id=page.page_id,
                    detail="never broadcast",
                )
            )
            max_excess = float("inf")
            continue
        first = slots[0]
        if first >= page.expected_time:
            violations.append(
                Violation(
                    kind=ViolationKind.LATE_FIRST_APPEARANCE,
                    page_id=page.page_id,
                    detail=(
                        f"first broadcast at slot {first} (0-based) but "
                        f"expected time is {page.expected_time}"
                    ),
                )
            )
        for gap in literal_gaps(slots, program.cycle_length):
            if gap > page.expected_time:
                violations.append(
                    Violation(
                        kind=ViolationKind.GAP_EXCEEDS_EXPECTED_TIME,
                        page_id=page.page_id,
                        detail=(
                            f"gap of {gap} slots exceeds expected time "
                            f"{page.expected_time}"
                        ),
                    )
                )
                max_excess = max(max_excess, gap - page.expected_time)
    return ValidationReport(
        violations=tuple(violations), max_excess_wait=max_excess
    )


# ----------------------------------------------------------------------
# validate_program == the literal loop
# ----------------------------------------------------------------------

LADDERS = (
    ((2, 3), (2, 4)),
    ((1, 2, 2), (2, 4, 8)),
    ((3, 1), (4, 8)),
    ((2, 2, 1), (1, 2, 4)),
)


@st.composite
def validation_cases(draw):
    """A SUSC program for a small ladder, then a handful of corruptions.

    Zero edits keeps the program valid; the edits move pages late,
    stretch gaps (clearing cells), drop pages entirely, plant unknown
    pages and put one page on two channels of one column.
    """
    sizes, times = draw(st.sampled_from(LADDERS))
    instance = instance_from_counts(sizes, times)
    program = schedule_susc(instance).program
    extra = draw(st.integers(0, 2))
    grid = program.grid_rows()
    if extra:
        grid += [[None] * program.cycle_length for _ in range(extra)]
    ids = [page.page_id for page in instance.pages()]
    channels, cycle = len(grid), program.cycle_length
    cell = st.tuples(
        st.integers(0, channels - 1), st.integers(0, cycle - 1)
    )
    for _ in range(draw(st.integers(0, 6))):
        action = draw(st.sampled_from(
            ("clear", "plant", "unknown", "drop", "twin")
        ))
        channel, slot = draw(cell)
        if action == "clear":
            grid[channel][slot] = None
        elif action == "plant":
            grid[channel][slot] = draw(st.sampled_from(ids))
        elif action == "unknown":
            grid[channel][slot] = draw(st.sampled_from((97, 98, 1000)))
        elif action == "drop":
            gone = draw(st.sampled_from(ids))
            grid = [
                [None if value == gone else value for value in row]
                for row in grid
            ]
        elif channels > 1:  # twin: same page on two channels, one column
            page_id = draw(st.sampled_from(ids))
            grid[channel][slot] = page_id
            grid[(channel + 1) % channels][slot] = page_id
    packed = draw(st.booleans())
    if packed:
        built = BroadcastProgram.from_array(
            np.asarray(
                [[-1 if v is None else v for v in row] for row in grid]
            )
        )
    else:
        built = BroadcastProgram.from_grid(grid)
    return built, instance


@settings(max_examples=300, deadline=None)
@given(case=validation_cases())
def test_validate_program_matches_literal_loop(case):
    program, instance = case
    report = validate_program(program, instance)
    oracle = validate_program_literal(program, instance)
    assert report == oracle
    # Identical down to the number type: an int worst excess stays an
    # int, no excess stays 0.0, a missing page makes it inf.
    assert repr(report) == repr(oracle)
    if any(v.kind is ViolationKind.MISSING_PAGE for v in oracle.violations):
        assert math.isinf(report.max_excess_wait)


def test_valid_ladder_has_empty_report():
    instance = instance_from_counts((1, 2, 2), (2, 4, 8))
    program = schedule_susc(instance).program
    assert validate_program(program, instance) == ValidationReport((), 0.0)


def test_empty_program_misses_every_page():
    instance = instance_from_counts((2,), (4,))
    program = BroadcastProgram(num_channels=1, cycle_length=4)
    report = validate_program(program, instance)
    assert report == validate_program_literal(program, instance)
    assert [v.kind for v in report.violations] == [
        ViolationKind.MISSING_PAGE
    ] * 2


# ----------------------------------------------------------------------
# The memoised derivation under random assign/clear sequences
# ----------------------------------------------------------------------


def assert_matches_scratch(program: BroadcastProgram) -> None:
    cells = scan_appearances(program)
    slots = scan_slots(program)
    cycle = program.cycle_length
    assert program.page_ids() == set(cells)
    assert program.page_counts() == {
        page_id: len(refs) for page_id, refs in cells.items()
    }
    for page_id in sorted(cells) + [12345]:
        assert program.appearances(page_id) == cells.get(page_id, [])
        assert program.appearance_slots(page_id) == slots.get(page_id, [])
        assert program.broadcast_count(page_id) == len(
            cells.get(page_id, [])
        )
        if page_id in slots:
            assert program.cyclic_gaps(page_id) == literal_gaps(
                slots[page_id], cycle
            )
    ordered = sorted(cells)
    index = AppearanceIndex.from_program(program)
    assert index.page_ids.tolist() == ordered
    assert index.slots.dtype == np.float64
    assert index.slots.tolist() == [s for pid in ordered for s in slots[pid]]
    counts = [len(slots[pid]) for pid in ordered]
    assert index.offsets.tolist() == np.concatenate(
        ([0], np.cumsum(counts, dtype=np.int64))
    ).tolist()
    chosen = list(reversed(ordered)) + [12345]
    picked = AppearanceIndex.from_program(program, chosen)
    assert picked.page_ids.tolist() == chosen
    assert picked.slots.tolist() == [
        s for pid in chosen for s in slots.get(pid, [])
    ]
    assert np.diff(picked.offsets).tolist() == [
        len(slots.get(pid, [])) for pid in chosen
    ]
    assert program.packed_grid().tolist() == [
        [-1 if v is None else v for v in row] for row in program.grid_rows()
    ]


class AppearanceMachine(RuleBasedStateMachine):
    """Random assign/clear/copy sequences; every query vs a fresh scan."""

    @initialize(
        channels=st.integers(1, 3),
        cycle=st.integers(1, 8),
        packed=st.booleans(),
    )
    def build(self, channels, cycle, packed):
        if packed:
            self.program = BroadcastProgram.from_array(
                np.full((channels, cycle), -1, dtype=np.int64)
            )
        else:
            self.program = BroadcastProgram(channels, cycle)

    def _cell(self, data):
        return (
            data.draw(st.integers(0, self.program.num_channels - 1)),
            data.draw(st.integers(0, self.program.cycle_length - 1)),
        )

    @rule(data=st.data(), page_id=st.integers(0, 4))
    def assign(self, data, page_id):
        channel, slot = self._cell(data)
        if self.program.is_free(channel, slot):
            self.program.assign(channel, slot, page_id)

    @rule(data=st.data())
    def clear(self, data):
        self.program.clear(*self._cell(data))

    @rule(data=st.data(), page_id=st.integers(0, 4))
    def continue_on_copy(self, data, page_id):
        # The copy shares the original's current table; mutating the
        # original afterwards must not leak into the copy.
        before = self.program.grid_rows()
        clone = self.program.copy()
        assert clone == self.program
        channel, slot = self._cell(data)
        if self.program.is_free(channel, slot):
            self.program.assign(channel, slot, page_id)
        else:
            self.program.clear(channel, slot)
        assert clone.grid_rows() == before
        assert_matches_scratch(self.program)
        self.program = clone

    @invariant()
    def queries_match_a_fresh_scan(self):
        assert_matches_scratch(self.program)


TestAppearanceMachine = AppearanceMachine.TestCase
TestAppearanceMachine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
