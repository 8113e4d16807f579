"""Slotted pages.

"The data granularity inside the buffer is a page, which is also the
unit of data transfer between nodes." (Sect. 4)  Pages hold record
versions in slots; freed slots are reused.  Byte accounting is real:
a page admits a version only if its serialised size still fits.
"""

from __future__ import annotations

import typing

from repro.hardware import specs
from repro.storage.record import RecordVersion

PAGE_HEADER_BYTES = 96
SLOT_BYTES = 8


class PageFullError(RuntimeError):
    """Raised when a version does not fit into the page."""


class Page:
    """A fixed-size slotted page holding :class:`RecordVersion` slots."""

    def __init__(self, page_id: int, segment_id: int,
                 capacity_bytes: int = specs.PAGE_BYTES):
        if capacity_bytes <= PAGE_HEADER_BYTES:
            raise ValueError(f"page capacity too small: {capacity_bytes}")
        self.page_id = page_id
        self.segment_id = segment_id
        self.capacity_bytes = capacity_bytes
        self.used_bytes = PAGE_HEADER_BYTES
        self._slots: list[RecordVersion | None] = []
        self._free_slots: list[int] = []
        #: Log sequence number of the last change, for recovery.
        self.lsn = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    @property
    def live_slot_count(self) -> int:
        return len(self._slots) - len(self._free_slots)

    @property
    def room(self) -> int:
        """The largest version the page admits: its free bytes, less a
        new slot's entry when no freed slot is left to reuse."""
        if self._free_slots:
            return self.free_bytes
        return self.free_bytes - SLOT_BYTES

    def fits(self, version: RecordVersion) -> bool:
        return version.size_bytes <= self.room

    def insert(self, version: RecordVersion) -> int:
        """Store a version and set its ``slot``; returns the slot."""
        if not self.insert_run((version,), 0, 1):
            raise PageFullError(
                f"page {self.page_id}: {version.size_bytes} B does not fit "
                f"in {self.free_bytes} B free"
            )
        return version.slot

    def insert_run(self, versions: typing.Sequence[RecordVersion],
                   start: int, stop: int) -> int:
        """Store ``versions[start:stop]`` in order for as long as each
        fits — a freed slot first, else a new one — and set each one's
        ``slot``; returns the index of the first not stored."""
        capacity = self.capacity_bytes
        used = self.used_bytes
        slots, free = self._slots, self._free_slots
        index = start
        while index < stop:
            version = versions[index]
            size = version.size_bytes
            if free:
                if used + size > capacity:
                    break
                slot = free.pop()
                slots[slot] = version
                used += size
            else:
                if used + size + SLOT_BYTES > capacity:
                    break
                slot = len(slots)
                slots.append(version)
                used += size + SLOT_BYTES
            version.slot = slot
            index += 1
        self.used_bytes = used
        return index

    def get(self, slot: int) -> RecordVersion:
        """Fetch a slot, verifying its checksum before returning it.

        The verdict is cached per version (see ``RecordVersion.clean``):
        a version is born verified, so a read re-hashes a row only after
        a modelled fault touched it — the fault injector drops the cache
        when it corrupts the stored bytes, so the *next* read raises
        ``IntegrityError`` instead of returning garbage.
        """
        version = self._slots[slot] if 0 <= slot < len(self._slots) else None
        if version is None:
            raise KeyError(f"page {self.page_id}: slot {slot} is empty")
        if not version.clean:
            version.verify(where="page-read")
        return version

    def remove(self, slot: int) -> RecordVersion:
        """Free a slot (version GC or record movement); returns it."""
        version = self.get(slot)
        self._slots[slot] = None
        self._free_slots.append(slot)
        self.used_bytes -= version.size_bytes
        return version

    def versions(self) -> typing.Iterator[tuple[int, RecordVersion]]:
        """All occupied slots in slot order (a physical page scan)."""
        for slot, version in enumerate(self._slots):
            if version is not None:
                yield slot, version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Page {self.page_id} seg={self.segment_id} "
            f"slots={self.live_slot_count} used={self.used_bytes}B>"
        )
