"""The multi-channel broadcast program ``B`` (Section 3.2).

A broadcast program is conceptually a 2-D array: each row is a broadcast
channel, each column is a time slot, and the whole grid repeats cyclically
with period ``cycle_length`` (the paper's major cycle ``t_major``; ``t_h``
for SUSC programs).  A cell holds at most one page id.

Indexing convention: **0-based** channels and slots throughout the code
(the paper is 1-based; :meth:`BroadcastProgram.render` shows 1-based labels
so its output can be compared against the paper's Figure 2 directly).

The program keeps two views of one grid.  A plain list-of-lists serves
the schedulers, which probe single cells far more often than they scan
rows.  A packed int64 mirror (``-1`` = free cell) is the single source of
appearance data: :meth:`BroadcastProgram.appearance_table` derives every
page's sorted slots, cell counts and cyclic gaps from it in one array
pass, memoised per :attr:`~BroadcastProgram.version`, and every
appearance query — the per-page accessors, program validation, the
vectorised delay kernels and the listener-replay index — reads that one
derivation.  :meth:`~BroadcastProgram.assign` and
:meth:`~BroadcastProgram.clear` only write the two grid views.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import InvalidInstanceError, SlotConflictError

__all__ = ["SlotRef", "AppearanceTable", "BroadcastProgram"]


@dataclass(frozen=True, slots=True, order=True)
class SlotRef:
    """A reference to one cell of a broadcast program.

    Ordering is (slot, channel): earlier airtime first, which is the order
    clients experience and the order placement algorithms scan columns.
    """

    slot: int
    channel: int

    def __str__(self) -> str:
        return f"(ch={self.channel}, slot={self.slot})"


class AppearanceTable:
    """Every page's appearances in one program version, packed by row.

    Row ``r`` belongs to ``page_ids[r]`` (ascending page id); its sorted,
    de-duplicated appearance slots are ``slots[offsets[r]:offsets[r+1]]``
    and ``gaps`` holds the matching cyclic gaps (each slot to the next,
    the last wrapping to the first plus one cycle).  ``counts[r]`` counts
    *cells*, so a page on two channels of one column counts twice there
    but contributes one slot.  All arrays are int64 and read-only.
    """

    __slots__ = (
        "page_ids", "offsets", "slots", "counts", "gaps", "rows",
        "_count_list", "_offset_list", "_slot_list", "_gap_list",
    )

    def __init__(self, packed: np.ndarray, cycle_length: int) -> None:
        num_channels = packed.shape[0]
        # Slot-major cell order, so each page's cells come out sorted by
        # (slot, channel) once a stable sort groups them by page.
        cells = packed.T.ravel()
        where = np.flatnonzero(cells != -1)
        values = cells[where]
        order = np.argsort(values, kind="stable")
        pids = values[order]
        slots = where[order] // num_channels
        new_page = np.ones(pids.shape[0], dtype=bool)
        new_page[1:] = pids[1:] != pids[:-1]
        keep = new_page.copy()
        keep[1:] |= slots[1:] != slots[:-1]
        self.page_ids = pids[new_page]
        self.counts = np.diff(
            np.append(np.flatnonzero(new_page), pids.shape[0])
        )
        self.slots = slots[keep]
        self.offsets = np.append(
            np.flatnonzero(new_page[keep]), self.slots.shape[0]
        )
        following = np.arange(1, self.slots.shape[0] + 1)
        ends = self.offsets[1:] - 1
        following[ends] = self.offsets[:-1]
        self.gaps = self.slots[following] - self.slots
        self.gaps[ends] += cycle_length
        for array in (
            self.page_ids, self.counts, self.slots, self.offsets, self.gaps
        ):
            array.setflags(write=False)
        self.rows = {
            pid: row for row, pid in enumerate(self.page_ids.tolist())
        }
        self._count_list = self.counts.tolist()
        self._offset_list = self.offsets.tolist()
        self._slot_list: list[int] | None = None
        self._gap_list: list[int] | None = None

    def rows_of(self, page_ids: np.ndarray) -> np.ndarray:
        """Row per page id, ``-1`` where the page does not appear."""
        page_ids = np.asarray(page_ids, dtype=np.int64)
        if not self.page_ids.size:
            return np.full(page_ids.shape[0], -1, dtype=np.int64)
        pos = np.searchsorted(self.page_ids, page_ids)
        pos = np.minimum(pos, self.page_ids.shape[0] - 1)
        return np.where(self.page_ids[pos] == page_ids, pos, -1)

    def take(
        self, rows: np.ndarray, column: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows of ``column`` (``slots`` or ``gaps``) back to back.

        Returns ``(flat, offsets)`` in the order of ``rows``; a ``-1`` row
        contributes an empty run.
        """
        # Row -1 indexes the appended empty run.
        sizes = np.append(np.diff(self.offsets), 0)[rows]
        starts = np.append(self.offsets[:-1], 0)[rows]
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        index = np.arange(int(offsets[-1]), dtype=np.int64) + np.repeat(
            starts - offsets[:-1], sizes
        )
        return column[index], offsets

    def count(self, page_id: int) -> int:
        """Cells holding ``page_id`` (0 when it is off air)."""
        row = self.rows.get(page_id)
        return 0 if row is None else self._count_list[row]

    def slot_list(self, page_id: int) -> list[int]:
        """A fresh list of ``page_id``'s sorted appearance slots."""
        if self._slot_list is None:
            self._slot_list = self.slots.tolist()
        return self._row_list(self._slot_list, page_id)

    def gap_list(self, page_id: int) -> list[int]:
        """A fresh list of ``page_id``'s cyclic gaps."""
        if self._gap_list is None:
            self._gap_list = self.gaps.tolist()
        return self._row_list(self._gap_list, page_id)

    def _row_list(self, flat: list[int], page_id: int) -> list[int]:
        row = self.rows.get(page_id)
        if row is None:
            return []
        return flat[self._offset_list[row]:self._offset_list[row + 1]]


class BroadcastProgram:
    """A cyclic ``num_channels x cycle_length`` broadcast schedule.

    The program owns its grid; schedulers fill it through :meth:`assign`,
    which refuses to overwrite an occupied cell so double-placement bugs
    surface immediately instead of silently corrupting the schedule.
    """

    def __init__(self, num_channels: int, cycle_length: int) -> None:
        if num_channels <= 0:
            raise InvalidInstanceError(
                f"num_channels must be positive, got {num_channels}"
            )
        if cycle_length <= 0:
            raise InvalidInstanceError(
                f"cycle_length must be positive, got {cycle_length}"
            )
        self._num_channels = num_channels
        self._cycle_length = cycle_length
        self._grid: list[list[int | None]] = [
            [None] * cycle_length for _ in range(num_channels)
        ]
        # Packed int64 mirror of the grid (-1 = free), built lazily by
        # :meth:`packed_grid` and kept in sync cell-by-cell on mutation.
        # The array-kernel constructors seed it for free, so consumers
        # like the live re-plan patcher never pay an O(grid) conversion.
        self._packed = None
        # (version, AppearanceTable) of the last derivation.
        self._table: tuple[int, AppearanceTable] | None = None
        # Bumped on every cell mutation; see :attr:`version`.
        self._version = 0

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_channels(self) -> int:
        """Number of broadcast channels (grid rows)."""
        return self._num_channels

    @property
    def cycle_length(self) -> int:
        """Major-cycle length ``t_major`` in slots (grid columns)."""
        return self._cycle_length

    @property
    def total_slots(self) -> int:
        """Total number of cells in one cycle."""
        return self._num_channels * self._cycle_length

    @property
    def version(self) -> int:
        """Mutation stamp: incremented by every :meth:`assign`/:meth:`clear`.

        External caches keyed on ``(id(program), program.version)`` stay
        coherent across in-place repairs without subscribing to every
        mutation (the appearance-index memo in
        :mod:`repro.analysis.vectorized` is the canonical consumer).
        """
        return self._version

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------

    def _check_cell(self, channel: int, slot: int) -> None:
        if not 0 <= channel < self._num_channels:
            raise InvalidInstanceError(
                f"channel {channel} out of range 0..{self._num_channels - 1}"
            )
        if not 0 <= slot < self._cycle_length:
            raise InvalidInstanceError(
                f"slot {slot} out of range 0..{self._cycle_length - 1}"
            )

    def get(self, channel: int, slot: int) -> int | None:
        """Return the page id at a cell, or ``None`` if the cell is free."""
        self._check_cell(channel, slot)
        return self._grid[channel][slot]

    def is_free(self, channel: int, slot: int) -> bool:
        """True if the cell holds no page."""
        return self.get(channel, slot) is None

    def assign(self, channel: int, slot: int, page_id: int) -> None:
        """Place ``page_id`` at ``(channel, slot)``.

        Raises:
            SlotConflictError: If the cell is already occupied.
            InvalidInstanceError: If ``page_id`` is ``-1``, the packed
                grid's free-cell marker.
        """
        self._check_cell(channel, slot)
        if page_id == -1:
            raise InvalidInstanceError(
                "page id -1 is reserved: it marks a free packed-grid cell"
            )
        occupant = self._grid[channel][slot]
        if occupant is not None:
            raise SlotConflictError(
                f"slot (ch={channel}, slot={slot}) already holds page "
                f"{occupant}; cannot place page {page_id}"
            )
        self._grid[channel][slot] = page_id
        if self._packed is not None:
            self._packed[channel, slot] = page_id
        self._version += 1

    def clear(self, channel: int, slot: int) -> int | None:
        """Remove and return the page at a cell (``None`` if it was free)."""
        self._check_cell(channel, slot)
        occupant = self._grid[channel][slot]
        if occupant is not None:
            self._grid[channel][slot] = None
            if self._packed is not None:
                self._packed[channel, slot] = -1
            self._version += 1
        return occupant

    # ------------------------------------------------------------------
    # Scans used by the schedulers
    # ------------------------------------------------------------------

    def free_slot_in_channel_window(
        self, channel: int, window: int
    ) -> int | None:
        """First free slot index in ``channel`` among slots ``0..window-1``.

        This is the inner scan of the paper's GetAvailableSlot (Algorithm 2):
        the window is the page's expected time ``t_i``.
        """
        limit = min(window, self._cycle_length)
        row = self._grid[channel]
        for slot in range(limit):
            if row[slot] is None:
                return slot
        return None

    def free_channel_in_column(self, slot: int) -> int | None:
        """First channel with a free cell in column ``slot`` (Algorithm 4 scan)."""
        self._check_cell(0, slot)
        for channel in range(self._num_channels):
            if self._grid[channel][slot] is None:
                return channel
        return None

    def free_cells(self) -> Iterator[SlotRef]:
        """Iterate over all free cells in (slot, channel) order."""
        for slot in range(self._cycle_length):
            for channel in range(self._num_channels):
                if self._grid[channel][slot] is None:
                    yield SlotRef(slot=slot, channel=channel)

    def occupancy(self) -> float:
        """Fraction of cells holding a page."""
        used = self.total_slots - sum(
            row.count(None) for row in self._grid
        )
        return used / self.total_slots

    # ------------------------------------------------------------------
    # Appearance queries (the client's view)
    # ------------------------------------------------------------------

    def appearance_table(self) -> AppearanceTable:
        """Every page's appearances, derived from :meth:`packed_grid`.

        Memoised on :attr:`version`: repeated queries between mutations
        share one derivation, and the first query after an
        :meth:`assign`/:meth:`clear` re-derives the whole table in one
        array pass.
        """
        memo = self._table
        if memo is None or memo[0] != self._version:
            memo = (
                self._version,
                AppearanceTable(self.packed_grid(), self._cycle_length),
            )
            self._table = memo
        return memo[1]

    def page_ids(self) -> set[int]:
        """All page ids appearing at least once in the program."""
        return set(self.appearance_table().rows)

    def appearances(self, page_id: int) -> list[SlotRef]:
        """All cells holding ``page_id``, sorted by airtime."""
        slots, channels = np.nonzero(self.packed_grid().T == page_id)
        return [
            SlotRef(slot=slot, channel=channel)
            for slot, channel in zip(slots.tolist(), channels.tolist())
        ]

    def appearance_slots(self, page_id: int) -> list[int]:
        """Sorted slot indices at which ``page_id`` is broadcast.

        A page may appear on any channel; a client with the program index
        tunes to whichever channel carries the next appearance, so only the
        slot (column) matters for waiting time.
        """
        return self.appearance_table().slot_list(page_id)

    def broadcast_count(self, page_id: int) -> int:
        """Number of appearances of ``page_id`` in one cycle (``s_{i,j}``)."""
        return self.appearance_table().count(page_id)

    def page_counts(self) -> Counter[int]:
        """Appearance count per page id."""
        table = self.appearance_table()
        return Counter(dict(zip(table.rows, table.counts.tolist())))

    def cyclic_gaps(self, page_id: int) -> list[int]:
        """Cyclic gaps between consecutive appearances of ``page_id``.

        The gaps partition the cycle: they always sum to ``cycle_length``.
        A page appearing once has a single gap equal to the whole cycle.
        """
        gaps = self.appearance_table().gap_list(page_id)
        if not gaps:
            raise InvalidInstanceError(
                f"page {page_id} does not appear in the program"
            )
        return gaps

    def wait_time(self, page_id: int, arrival: float) -> float:
        """Time from ``arrival`` until the next broadcast start of ``page_id``.

        ``arrival`` is a (possibly fractional) time in ``[0, cycle_length)``;
        a client arriving exactly when the page starts waits zero.
        """
        slots = self.appearance_slots(page_id)
        if not slots:
            raise InvalidInstanceError(
                f"page {page_id} does not appear in the program"
            )
        if not 0 <= arrival < self._cycle_length:
            arrival %= self._cycle_length
        for slot in slots:
            if slot >= arrival:
                return slot - arrival
        return slots[0] + self._cycle_length - arrival

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------

    @classmethod
    def from_grid(
        cls, grid: Sequence[Sequence[int | None]]
    ) -> "BroadcastProgram":
        """Build a program from a complete grid in one pass.

        Equivalent to constructing an empty program and :meth:`assign`-ing
        every non-``None`` cell in row-major order, but without per-cell
        bounds and conflict checks (each cell is written exactly once by
        construction).  Fast placement kernels materialise their result
        through this path.

        Raises:
            InvalidInstanceError: If the grid is empty or ragged, or a
                cell holds ``-1`` (the packed grid's free-cell marker,
                which :meth:`assign` refuses too).
        """
        if not grid or not grid[0]:
            raise InvalidInstanceError("grid must be non-empty")
        cycle_length = len(grid[0])
        program = cls(num_channels=len(grid), cycle_length=cycle_length)
        rows = program._grid
        for channel, row in enumerate(grid):
            if len(row) != cycle_length:
                raise InvalidInstanceError(
                    f"grid row {channel} has {len(row)} slots, expected "
                    f"{cycle_length}"
                )
            if -1 in row:
                raise InvalidInstanceError(
                    "page id -1 is reserved: it marks a free packed-grid "
                    f"cell (grid row {channel})"
                )
            rows[channel] = list(row)
        return program

    @classmethod
    def from_array(cls, array) -> "BroadcastProgram":
        """Build a program from an int array grid (``-1`` marks empty).

        The vectorised placement kernels finish holding a numpy
        ``(num_channels, cycle_length)`` int grid; this converts it in
        bulk (one C-level pass per row, no per-cell Python loop) and
        keeps a copy as the packed mirror.
        """
        arr = np.asarray(array)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidInstanceError("grid must be a non-empty 2-D array")
        cells = arr.astype(object)
        cells[arr == -1] = None
        program = cls(
            num_channels=arr.shape[0], cycle_length=arr.shape[1]
        )
        program._grid = cells.tolist()
        program._packed = arr.astype(np.int64)
        return program

    def copy(self) -> "BroadcastProgram":
        """An independent copy of this program.

        Both grid views are duplicated; a current appearance table is
        shared (its arrays are read-only), so a copy answers appearance
        queries without re-deriving until one of the two is mutated.
        The live re-plan patcher copies the on-air program this way
        before editing one group's cells.
        """
        clone = BroadcastProgram(
            num_channels=self._num_channels,
            cycle_length=self._cycle_length,
        )
        clone._grid = [list(row) for row in self._grid]
        if self._packed is not None:
            clone._packed = self._packed.copy()
        if self._table is not None and self._table[0] == self._version:
            clone._table = (clone._version, self._table[1])
        return clone

    def grid_rows(self) -> list[list[int | None]]:
        """A copy of the raw grid, row per channel (for bulk consumers)."""
        return [list(row) for row in self._grid]

    def packed_grid(self):
        """The grid as an int64 numpy array, ``-1`` marking free cells.

        The array is the program's internal mirror — treat it as
        read-only and ``.copy()`` before editing.  Programs built by the
        array kernels (:meth:`from_array`) carry it from birth; for
        others the first call pays one O(grid) conversion, after which
        :meth:`assign`/:meth:`clear` keep it in sync cell-by-cell.  The
        live re-plan patcher runs entirely on this mirror, which is what
        makes its taut-budget patches microsecond-scale.
        """
        if self._packed is None:
            self._packed = np.asarray(
                [
                    [-1 if cell is None else cell for cell in row]
                    for row in self._grid
                ],
                dtype=np.int64,
            )
        return self._packed

    # ------------------------------------------------------------------
    # Serialisation and rendering
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation of the program."""
        return {
            "num_channels": self._num_channels,
            "cycle_length": self._cycle_length,
            "grid": [list(row) for row in self._grid],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BroadcastProgram":
        """Rebuild a program produced by :meth:`to_dict`."""
        program = cls(
            num_channels=int(data["num_channels"]),
            cycle_length=int(data["cycle_length"]),
        )
        grid: Sequence[Sequence[int | None]] = data["grid"]
        if len(grid) != program.num_channels:
            raise InvalidInstanceError(
                f"grid has {len(grid)} rows, expected {program.num_channels}"
            )
        for channel, row in enumerate(grid):
            if len(row) != program.cycle_length:
                raise InvalidInstanceError(
                    f"grid row {channel} has {len(row)} slots, expected "
                    f"{program.cycle_length}"
                )
            for slot, page_id in enumerate(row):
                if page_id is not None:
                    program.assign(channel, slot, int(page_id))
        return program

    def to_json(self, indent: int | None = None) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "BroadcastProgram":
        """Deserialise a program from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def render(self, cell_width: int | None = None) -> str:
        """Pretty-print the grid in the style of the paper's Figure 2.

        Rows are channels, columns are time slots (labelled 1-based like the
        paper), empty cells show ``.``.
        """
        if cell_width is None:
            widest = max(
                (len(str(pid)) for pid in self.appearance_table().rows),
                default=1,
            )
            cell_width = max(widest, len(str(self._cycle_length))) + 1
        lines = []
        header = "time".rjust(6) + "".join(
            str(slot + 1).rjust(cell_width)
            for slot in range(self._cycle_length)
        )
        lines.append(header)
        for channel, row in enumerate(self._grid):
            cells = "".join(
                (str(page) if page is not None else ".").rjust(cell_width)
                for page in row
            )
            lines.append(f"ch{channel + 1}".rjust(6) + cells)
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BroadcastProgram):
            return NotImplemented
        return self._grid == other._grid

    def __repr__(self) -> str:
        return (
            f"BroadcastProgram(channels={self._num_channels}, "
            f"cycle={self._cycle_length}, "
            f"pages={len(self.appearance_table().rows)}, "
            f"occupancy={self.occupancy():.2f})"
        )
