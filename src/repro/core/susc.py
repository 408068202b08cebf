"""SUSC — Scheduling Under Sufficient Channels (Section 3.2).

When the system provides at least the Theorem-3.1 minimum number of
channels, SUSC greedily builds a *valid* broadcast program on a major cycle
of ``t_h`` slots:

1. take pages in ascending expected-time order (Algorithm 1, step 1);
2. for each page ``p_{i,j}``, scan channel by channel for a free slot in
   the first ``t_i`` slots of that channel (GetAvailableSlot, Algorithm 2);
3. place the page there and at every ``t_i``-th slot after it in the same
   channel, ``ceil(t_h / t_i)`` times in total (Algorithm 1, step 4).

Theorem 3.2 guarantees step 2 always succeeds given sufficient channels,
and Theorem 3.3 that the periodic slots of step 3 are free.  Both theorems
are enforced as runtime invariants here: a violation raises
:class:`~repro.core.errors.SchedulingError`, so a bound bug could never
silently produce an invalid schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.bounds import minimum_channels
from repro.core.errors import InsufficientChannelsError, SchedulingError
from repro.core.fastpath import susc_fill_fast
from repro.core.intmath import ceil_div
from repro.core.pages import Page, ProblemInstance
from repro.core.program import BroadcastProgram, SlotRef
from repro.core.validate import assert_valid_program

__all__ = ["SuscSchedule", "schedule_susc"]


@dataclass(frozen=True)
class SuscSchedule:
    """The output of SUSC: a valid program plus placement metadata.

    Attributes:
        program: The generated valid broadcast program (cycle ``t_h``).
        instance: The scheduled problem instance.
        num_channels: Channels used (the Theorem-3.1 minimum by default).
        first_slots: For each page id, the slot of its first appearance —
            the ``(x, y)`` returned by GetAvailableSlot, kept for the
            Theorem 3.2/3.3 property tests.
    """

    program: BroadcastProgram
    instance: ProblemInstance
    num_channels: int
    first_slots: dict[int, SlotRef]

    @property
    def average_delay(self) -> float:
        """Analytic AvgD of the program — zero for any valid SUSC output.

        Computed (not assumed) so SUSC satisfies the same
        :class:`~repro.engine.registry.ScheduleResult` protocol as every
        other scheduler.
        """
        from repro.core.delay import program_average_delay

        return program_average_delay(self.program, self.instance)

    @property
    def meta(self) -> dict:
        """Scheduler diagnostics (the ScheduleResult protocol's ``meta``)."""
        return {
            "scheduler": "susc",
            "num_channels": self.num_channels,
            "cycle_length": self.program.cycle_length,
            "occupancy": self.program.occupancy(),
        }


def _get_available_slot(
    program: BroadcastProgram, page: Page
) -> SlotRef:
    """GetAvailableSlot (Algorithm 2): first free slot within the window.

    Scans channels in order; within each channel scans slots
    ``0 .. t_i - 1``.  Theorem 3.2 says this always succeeds when the
    channel count meets the Theorem 3.1 bound, so failure is reported as a
    hard error rather than a soft "not found".
    """
    for channel in range(program.num_channels):
        slot = program.free_slot_in_channel_window(
            channel, page.expected_time
        )
        if slot is not None:
            return SlotRef(slot=slot, channel=channel)
    raise SchedulingError(
        f"GetAvailableSlot found no free slot for {page} in the first "
        f"{page.expected_time} slots of any of {program.num_channels} "
        "channels — Theorem 3.2 violated (channel count below the bound, "
        "or a placement bug)"
    )


def _get_available_slot_cursored(
    program: BroadcastProgram, page: Page, cursors: list[int]
) -> SlotRef:
    """Cursor-accelerated GetAvailableSlot (the paper's §3.2 optimisation).

    The paper notes the slot search "need not be always starting from the
    first slot of every channel".  Because SUSC fills each channel's
    prefix monotonically (pages are placed at the first free slot and
    their periodic copies only land at or after it), the first free slot
    of a channel never moves backwards — so a per-channel cursor finds it
    in amortised O(1) instead of rescanning the prefix for every page.
    Returns exactly what the naive scan would.
    """
    for channel in range(program.num_channels):
        # Advance the cursor over cells filled since the last visit.
        while (
            cursors[channel] < program.cycle_length
            and not program.is_free(channel, cursors[channel])
        ):
            cursors[channel] += 1
        if cursors[channel] < page.expected_time:
            return SlotRef(slot=cursors[channel], channel=channel)
    raise SchedulingError(
        f"GetAvailableSlot found no free slot for {page} in the first "
        f"{page.expected_time} slots of any of {program.num_channels} "
        "channels — Theorem 3.2 violated (channel count below the bound, "
        "or a placement bug)"
    )


def schedule_susc(
    instance: ProblemInstance,
    num_channels: int | None = None,
    validate: bool = True,
) -> SuscSchedule:
    """Run SUSC and return a valid broadcast program.

    The fill runs on the raw-array kernel of :mod:`repro.core.fastpath`,
    which property tests pin to the literal Algorithm-1 fill
    (:func:`_susc_fill`) under both GetAvailableSlot probes.

    Args:
        instance: The groups to schedule (geometric expected-time ladder).
        num_channels: Channels to use.  Defaults to the Theorem-3.1 minimum;
            passing fewer raises :class:`InsufficientChannelsError` (use
            PAMAD for that regime), passing more simply leaves extra slack.
        validate: Re-check the two Section-3.1 conditions on the finished
            program (cheap; on by default as a safety net).

    Returns:
        A :class:`SuscSchedule` whose program satisfies every expected time.

    Raises:
        InsufficientChannelsError: If ``num_channels`` is below the bound.
        SchedulingError: If a placement invariant fails (indicates a bug —
            Theorems 3.2/3.3 exclude this under sufficient channels).
    """
    required = minimum_channels(instance)
    if num_channels is None:
        num_channels = required
    if num_channels < required:
        raise InsufficientChannelsError(
            provided=num_channels, required=required
        )

    program, first_slots = susc_fill_fast(instance, num_channels)
    if validate:
        assert_valid_program(program, instance)
    return SuscSchedule(
        program=program,
        instance=instance,
        num_channels=num_channels,
        first_slots=first_slots,
    )


def _susc_fill(
    instance: ProblemInstance,
    num_channels: int,
    probe: Callable[[BroadcastProgram, Page], SlotRef],
) -> tuple[BroadcastProgram, dict[int, SlotRef]]:
    """The literal Algorithm-1 fill, one cell at a time.

    ``probe`` is the GetAvailableSlot variant: :func:`_get_available_slot`
    (the naive scan) or :func:`_get_available_slot_cursored` with a fresh
    ``cursors`` list bound (the §3.2 optimisation).  Both yield the same
    program; ABL4 times the two, and the tests hold
    :func:`~repro.core.fastpath.susc_fill_fast` to this fill.
    """
    cycle = instance.max_expected_time
    program = BroadcastProgram(
        num_channels=num_channels, cycle_length=cycle
    )
    first_slots: dict[int, SlotRef] = {}
    for page in instance.pages_sorted_for_susc():
        start = probe(program, page)
        first_slots[page.page_id] = start
        repetitions = ceil_div(cycle, page.expected_time)  # ceil(t_h / t_i)
        for k in range(repetitions):
            slot = start.slot + k * page.expected_time
            if slot >= cycle:
                break
            if not program.is_free(start.channel, slot):
                raise SchedulingError(
                    f"Theorem 3.3 violated: periodic slot "
                    f"(ch={start.channel}, slot={slot}) for {page} is "
                    "already occupied"
                )
            program.assign(start.channel, slot, page.page_id)
    return program, first_slots
