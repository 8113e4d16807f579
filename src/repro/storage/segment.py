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
from array import array

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
        #: (page_no, slot) -> the version stored there, for every stored
        #: version whose delete is stamped (``deleted_ts`` set): what
        #: vacuum visits instead of every version of the segment.
        self.dead: dict[tuple[int, int], RecordVersion] = {}
        # Where the room is: a max-tree over the pages, leaf
        # ``_leaves + page_no`` an upper bound on that page's ``room``
        # (-1 where there is no page yet, or before the page's first
        # insert), node ``i`` the max of nodes ``2i`` and ``2i + 1``,
        # node 1 the root.  Inserts only shrink a page's room, so they
        # leave the tree alone; removals lift a leaf, and a placement
        # tightens a leaf it finds too loose to the page's true room.
        self._leaves = 1
        self._bounds = array("i", (-1, -1))

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
        if page_no is None:
            raise SegmentFullError(
                f"segment {self.segment_id}: all {self.max_pages} pages full"
            )
        page = self.pages[page_no]
        slot = page.insert(version)
        if self._bounds[self._leaves + page_no] < 0:
            # The page's first insert: its bound is what is left after
            # it, not the empty page's room, which would lure every
            # later search to a page the cursor is already filling.
            self._lift(page_no, page.room)
        version.home = self
        version.page_no = page_no
        if version.deleted_ts is not None:
            self.dead[page_no, slot] = version
        self._index_newest(version.key, (page_no, slot))
        return page_no, slot

    def _index_newest(self, key: typing.Any,
                      location: tuple[int, int]) -> None:
        """Put ``location`` at the head of ``key``'s chain."""
        chain = self.index.get(key)
        if chain is None:
            self.index.insert(key, [location])
        else:
            chain.insert(0, location)

    def insert_run(self, versions: typing.Sequence[RecordVersion],
                   start: int, stop: int) -> int:
        """Store ``versions[start:stop]``, keys strictly ascending, each
        on the page and slot :meth:`insert_version` would give it, and
        index them — bottom-up when the index is empty, else one entry
        at a time.  Stops where the extent is full; returns the index of
        the first version not stored."""
        keys, chains = [], []
        index = start
        while index < stop:
            page_no = self._find_page_with_room(versions[index])
            if page_no is None:
                break
            page = self.pages[page_no]
            first, index = index, page.insert_run(versions, index, stop)
            if index == first:
                raise PageFullError(
                    f"page {page.page_id}: {versions[first].size_bytes} B "
                    f"does not fit in an empty page"
                )
            if self._bounds[self._leaves + page_no] < 0:
                # A fresh page's bound: what is left after its first
                # fill (a tighter bound than one row leaves, so first
                # fit probes less and still picks the same page).
                self._lift(page_no, page.room)
            for version in versions[first:index]:
                version.home = self
                version.page_no = page_no
                if version.deleted_ts is not None:
                    self.dead[page_no, version.slot] = version
                keys.append(version.key)
                chains.append([(page_no, version.slot)])
        if not len(self.index):
            self.index.build(keys, chains)
            return index
        for key, (location,) in zip(keys, chains):
            self._index_newest(key, location)
        return index

    def _find_page_with_room(self, version: RecordVersion,
                             allow_overflow: bool = False) -> int | None:
        """The fill cursor's page if the version fits there, else the
        leftmost page it fits on, else a new page — or None when that
        would grow the extent past ``max_pages`` without
        ``allow_overflow``."""
        pages = self.pages
        size = version.size_bytes
        if pages:
            room = pages[self._fill_cursor].room
            if size <= room:
                return self._fill_cursor
            # Inserts land only on the cursor's page, so its bound is
            # the one that goes stale; set it to the truth before the
            # descent can probe it again.
            self._tighten(self._fill_cursor, room)
        bounds = self._bounds
        leaves = self._leaves
        while bounds[1] >= size:
            # Descend to the leftmost leaf whose bound admits the
            # version; every node is the max of its children, so one of
            # them always does.
            node = 1
            while node < leaves:
                node <<= 1
                if bounds[node] < size:
                    node += 1
            page_no = node - leaves
            page = pages[page_no]
            if page.fits(version):
                self._fill_cursor = page_no
                return page_no
            self._tighten(page_no, page.room)
        if len(pages) >= self.max_pages and not allow_overflow:
            return None
        if len(pages) == leaves:
            self._grow()
        pages.append(Page(next(_GLOBAL_PAGE_IDS), self.segment_id,
                          self.page_bytes))
        self._fill_cursor = len(pages) - 1
        return self._fill_cursor

    def _lift(self, page_no: int, room: int) -> None:
        """Raise a page's bound to ``room`` and its ancestors with it,
        up to the first one already that high."""
        bounds = self._bounds
        node = self._leaves + page_no
        while node and bounds[node] < room:
            bounds[node] = room
            node >>= 1

    def _tighten(self, page_no: int, room: int) -> None:
        """Set a page's bound to its true ``room`` and re-derive its
        ancestors, up to the first one that does not change."""
        bounds = self._bounds
        node = self._leaves + page_no
        bounds[node] = room
        node >>= 1
        while node:
            left = bounds[2 * node]
            right = bounds[2 * node + 1]
            best = left if left >= right else right
            if bounds[node] == best:
                break
            bounds[node] = best
            node >>= 1

    def _grow(self) -> None:
        """Double the leaves: the old leaves move to the new offset and
        the inner nodes are re-derived."""
        old, leaves = self._bounds, self._leaves
        bounds = array("i", (-1,)) * (4 * leaves)
        bounds[2 * leaves:3 * leaves] = old[leaves:]
        for node in range(2 * leaves - 1, 0, -1):
            left = bounds[2 * node]
            right = bounds[2 * node + 1]
            bounds[node] = left if left >= right else right
        self._bounds, self._leaves = bounds, 2 * leaves

    def remove_version(self, key: typing.Any, page_no: int, slot: int) -> RecordVersion:
        """Drop one version (GC or record movement)."""
        location = (page_no, slot)
        chain = self.index.get(key)
        if chain is None or location not in chain:
            raise KeyError(
                f"segment {self.segment_id}: no index entry for {key!r} at "
                f"({page_no}, {slot})"
            )
        page = self.pages[page_no]
        version = page.remove(slot)
        chain.remove(location)
        if not chain:
            self.index.delete(key)
        self.dead.pop(location, None)
        self._lift(page_no, page.room)
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
        """Physical order scan: page by page, slot by slot — every
        stored version, for the checkers, scrub and tests (vacuum reads
        :attr:`dead`)."""
        for pno, page in enumerate(self.pages):
            for slot, version in page.versions():
                yield pno, slot, version

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
