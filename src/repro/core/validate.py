"""Validity checking for broadcast programs (Section 3.1).

The paper defines a *valid broadcast program* by two conditions:

1. every page ``p_{i,j}`` is broadcast at least once between the program
   start and time ``t_i`` (so a client tuning in right at the start still
   meets its deadline), and
2. the time between consecutive broadcasts of ``p_{i,j}`` never exceeds
   ``t_i``.

Because broadcast programs repeat cyclically, condition 2 is checked on the
*cyclic* gaps (including the wrap-around gap from the last appearance back
to the first in the next cycle); together with condition 1 this is exactly
"no matter when a client starts to listen, it waits at most ``t_i``".

The checker returns a structured report rather than a bare boolean so tests
and the CLI can explain *why* a program is invalid (which page, which gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.errors import ProgramValidationError
from repro.core.pages import ProblemInstance
from repro.core.program import BroadcastProgram

__all__ = [
    "ViolationKind",
    "Violation",
    "ValidationReport",
    "validate_program",
    "assert_valid_program",
    "worst_case_wait",
]


class ViolationKind(Enum):
    """The ways a program can fail the Section 3.1 validity conditions."""

    MISSING_PAGE = "missing-page"
    LATE_FIRST_APPEARANCE = "late-first-appearance"
    GAP_EXCEEDS_EXPECTED_TIME = "gap-exceeds-expected-time"
    UNKNOWN_PAGE = "unknown-page"


@dataclass(frozen=True, slots=True)
class Violation:
    """One validity violation, with enough context to debug it."""

    kind: ViolationKind
    page_id: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind.value}] page {self.page_id}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a program against an instance.

    Attributes:
        violations: Every violation found (empty iff the program is valid).
        max_excess_wait: Worst slack beyond the expected time over all pages
            and arrival instants — 0 for a valid program; for invalid
            programs this is the worst-case extra wait a client can suffer.
    """

    violations: tuple[Violation, ...]
    max_excess_wait: float

    @property
    def ok(self) -> bool:
        """True iff the program satisfies both validity conditions."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return "valid broadcast program"
        return (
            f"invalid: {len(self.violations)} violation(s), worst excess "
            f"wait {self.max_excess_wait:.2f} slots"
        )


def worst_case_wait(program: BroadcastProgram, page_id: int) -> int:
    """Longest wait any client can experience for ``page_id``.

    Equals the largest cyclic gap: a client arriving immediately after a
    broadcast starts waits the full gap to the next one.
    """
    return max(program.cyclic_gaps(page_id))


def validate_program(
    program: BroadcastProgram, instance: ProblemInstance
) -> ValidationReport:
    """Check the two Section 3.1 conditions for every page of ``instance``.

    Pages present in the program but absent from the instance are also
    flagged (schedulers must not invent pages).

    Args:
        program: The broadcast program to check.
        instance: The problem instance defining pages and expected times.

    Returns:
        A :class:`ValidationReport`; ``report.ok`` is the validity verdict.
    """
    table = program.appearance_table()
    pages = list(instance.pages())
    ids = np.fromiter((page.page_id for page in pages), np.int64, len(pages))
    times = np.fromiter(
        (page.expected_time for page in pages), np.int64, len(pages)
    )
    violations = [
        Violation(
            kind=ViolationKind.UNKNOWN_PAGE,
            page_id=extra,
            detail="appears in the program but not in the instance",
        )
        for extra in table.page_ids[
            ~np.isin(table.page_ids, ids)
        ].tolist()
    ]

    # One array pass flags the pages that break a condition; only those
    # are walked in Python, in instance order, to word their violations.
    rows = table.rows_of(ids)
    present = rows >= 0
    late = np.zeros(len(pages), dtype=bool)
    too_long = np.zeros(len(pages), dtype=bool)
    if table.page_ids.size:
        safe = np.where(present, rows, 0)
        first = table.slots[table.offsets[safe]]
        widest = np.maximum.reduceat(table.gaps, table.offsets[:-1])[safe]
        # Condition 1: first appearance within the first t_i slots.
        # 0-based: slot index strictly below t_i means the broadcast
        # begins no later than the paper's (1-based) time t_i.
        late = present & (first >= times)
        # Condition 2: every cyclic gap within t_i.
        too_long = present & (widest > times)

    max_excess = 0.0
    for index in np.flatnonzero(~present | late | too_long).tolist():
        page = pages[index]
        if not present[index]:
            violations.append(
                Violation(
                    kind=ViolationKind.MISSING_PAGE,
                    page_id=page.page_id,
                    detail="never broadcast",
                )
            )
            max_excess = float("inf")
            continue
        if late[index]:
            violations.append(
                Violation(
                    kind=ViolationKind.LATE_FIRST_APPEARANCE,
                    page_id=page.page_id,
                    detail=(
                        f"first broadcast at slot {int(first[index])} "
                        f"(0-based) but expected time is "
                        f"{page.expected_time}"
                    ),
                )
            )
        if too_long[index]:
            for gap in table.gap_list(page.page_id):
                if gap > page.expected_time:
                    violations.append(
                        Violation(
                            kind=ViolationKind.GAP_EXCEEDS_EXPECTED_TIME,
                            page_id=page.page_id,
                            detail=(
                                f"gap of {gap} slots exceeds expected "
                                f"time {page.expected_time}"
                            ),
                        )
                    )
                    max_excess = max(max_excess, gap - page.expected_time)

    return ValidationReport(
        violations=tuple(violations), max_excess_wait=max_excess
    )


def assert_valid_program(
    program: BroadcastProgram, instance: ProblemInstance
) -> None:
    """Raise :class:`ProgramValidationError` if the program is invalid.

    Used as a post-condition by SUSC (which guarantees validity under
    sufficient channels) and by tests.
    """
    report = validate_program(program, instance)
    if not report.ok:
        details = "; ".join(str(v) for v in report.violations[:5])
        more = (
            f" (+{len(report.violations) - 5} more)"
            if len(report.violations) > 5
            else ""
        )
        raise ProgramValidationError(f"{report.summary()}: {details}{more}")
