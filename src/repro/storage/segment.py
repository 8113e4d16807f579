"""Segments: the unit of physical distribution.

"A segment (32 MB) consists of 4096 blocks or pages ... Segments are
the unit of distribution in the storage subsystem.  Hence, all pages in
a segment will be copied/moved among nodes in one batch." (Sect. 4)

For physiological partitioning, "each segment keeps a primary-key index
for all records within it.  Moving a segment from one partition to
another does not invalidate the primary-key index of the segment."
(Sect. 4.3) — that index lives right here, inside the segment, so it
travels with the pages.
"""

from __future__ import annotations

import itertools
import typing

from repro.hardware import specs
from repro.index.btree import BPlusTree
from repro.storage.page import Page, PageFullError
from repro.storage.record import RecordVersion


class SegmentFullError(RuntimeError):
    """The segment has no room for another version."""


class Segment:
    """A fixed-extent run of pages with an embedded primary-key index."""

    def __init__(self, segment_id: int, table: str,
                 max_pages: int = specs.SEGMENT_PAGES,
                 page_bytes: int = specs.PAGE_BYTES):
        if max_pages < 1:
            raise ValueError("segment needs at least one page")
        self.segment_id = segment_id
        self.table = table
        self.max_pages = max_pages
        self.page_bytes = page_bytes
        self.pages: list[Page] = []
        #: key -> list of (page_no, slot), newest version first.
        self.index: BPlusTree = BPlusTree()
        self._fill_cursor = 0
        # Upper bound on any page's free_bytes.  Raised whenever a page
        # gains room (new page, version removed), tightened to the exact
        # maximum whenever a full first-fit scan fails.  Inserts only
        # shrink free space, so the bound stays valid without updates on
        # the hot path — and lets ``_find_page_with_room`` skip the O(n)
        # scan outright when the incoming version provably cannot fit.
        self._max_free_ub = 0

    # -- capacity ----------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def used_bytes(self) -> int:
        """Actual bytes occupied — includes old MVCC versions, which is
        exactly what Fig. 3's storage-space lines measure."""
        return sum(p.used_bytes for p in self.pages)

    @property
    def extent_bytes(self) -> int:
        """The full on-disk reservation (segments are preallocated)."""
        return self.max_pages * self.page_bytes

    @property
    def record_count(self) -> int:
        """Distinct logical keys present (any version)."""
        return len(self.index)

    @property
    def version_count(self) -> int:
        return sum(p.live_slot_count for p in self.pages)

    # -- writes ----------------------------------------------------------

    def insert_version(self, version: RecordVersion,
                       allow_overflow: bool = False) -> tuple[int, int]:
        """Place a version on some page; returns ``(page_no, slot)``.

        ``allow_overflow=True`` permits growing past ``max_pages`` —
        used for MVCC version chains, which may temporarily exceed the
        extent until vacuum reclaims old versions.
        """
        page_no = self._find_page_with_room(version, allow_overflow)
        page = self.pages[page_no]
        slot = page.insert(version)
        # Raise the bound only to the page's *post-insert* free space: a
        # freshly appended page's empty-page headroom is consumed right
        # here, and advertising it would leave the bound pinned high and
        # the scan-skip below permanently disarmed.
        if page.free_bytes > self._max_free_ub:
            self._max_free_ub = page.free_bytes
        version.home = self
        chain = self.index.get(version.key)
        if chain is None:
            self.index.insert(version.key, [(page_no, slot)])
        else:
            chain.insert(0, (page_no, slot))
        return page_no, slot

    def _find_page_with_room(self, version: RecordVersion,
                             allow_overflow: bool = False) -> int:
        if self.pages and self.pages[self._fill_cursor].fits(version):
            return self._fill_cursor
        # ``fits`` needs at least size_bytes free, so when even the
        # loosest page cannot offer that, the scan below is guaranteed
        # to fail — skip straight to extending the segment.
        if version.size_bytes <= self._max_free_ub:
            max_free = 0
            for page_no, page in enumerate(self.pages):
                if page.fits(version):
                    self._fill_cursor = page_no
                    return page_no
                free = page.free_bytes
                if free > max_free:
                    max_free = free
            self._max_free_ub = max_free
        if len(self.pages) >= self.max_pages and not allow_overflow:
            raise SegmentFullError(
                f"segment {self.segment_id}: all {self.max_pages} pages full"
            )
        page = Page(next(_GLOBAL_PAGE_IDS), self.segment_id, self.page_bytes)
        self.pages.append(page)
        # The caller (insert_version) raises _max_free_ub from this
        # page's free space once its insert has landed.
        self._fill_cursor = len(self.pages) - 1
        return self._fill_cursor

    def remove_version(self, key: typing.Any, page_no: int, slot: int) -> RecordVersion:
        """Drop one version (GC or record movement)."""
        version = self.pages[page_no].remove(slot)
        free = self.pages[page_no].free_bytes
        if free > self._max_free_ub:
            self._max_free_ub = free
        chain = self.index.get(key)
        if chain is None or (page_no, slot) not in chain:
            raise KeyError(
                f"segment {self.segment_id}: no index entry for {key!r} at "
                f"({page_no}, {slot})"
            )
        chain.remove((page_no, slot))
        if not chain:
            self.index.delete(key)
        return version

    # -- reads ----------------------------------------------------------

    def versions_for(self, key: typing.Any) -> list[tuple[int, int, RecordVersion]]:
        """All stored versions of ``key``, newest first."""
        chain = self.index.get(key)
        if chain is None:
            return []
        return [(pno, slot, self.pages[pno].get(slot)) for pno, slot in chain]

    def scan_pages(self) -> typing.Iterator[Page]:
        return iter(self.pages)

    def scan_versions(self) -> typing.Iterator[tuple[int, int, RecordVersion]]:
        """Physical order scan: page by page, slot by slot."""
        # Reads the slot array directly rather than chaining through
        # Page.versions(): vacuum walks every version of every segment,
        # and the nested-generator plumbing dominates that walk.
        for page_no, page in enumerate(self.pages):
            for slot, version in enumerate(page._slots):
                if version is not None:
                    yield page_no, slot, version

    def index_scan(self, lo: typing.Any = None, hi: typing.Any = None,
                   hi_inclusive: bool = False
                   ) -> typing.Iterator[tuple[typing.Any, list[tuple[int, int]]]]:
        """Key-order scan of the embedded index over ``[lo, hi)``."""
        yield from self.index.items(lo=lo, hi=hi, hi_inclusive=hi_inclusive)

    def max_key(self) -> typing.Any:
        return self.index.max_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Segment {self.segment_id} table={self.table} "
            f"pages={self.page_count}/{self.max_pages} keys={self.record_count}>"
        )


#: Shared allocator: page ids must be unique across segments
#: because the buffer pool keys frames by page id.
_GLOBAL_PAGE_IDS = itertools.count(1)
