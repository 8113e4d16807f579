"""Tests for slotted pages and segments."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Column, Page, PageFullError, RecordVersion, Schema
from repro.storage import Segment, SegmentFullError
from repro.storage.page import PAGE_HEADER_BYTES, SLOT_BYTES


def schema():
    return Schema(
        columns=[Column("id"), Column("payload", "str", width=64)],
        key=("id",),
    )


def version(key, payload="x" * 10, created_by=1):
    return RecordVersion.make(schema(), (key, payload), created_by=created_by)


class TestPage:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Page(1, 1, capacity_bytes=50)

    def test_insert_and_get(self):
        page = Page(1, 1)
        v = version(10)
        slot = page.insert(v)
        assert page.get(slot) is v
        assert page.live_slot_count == 1

    def test_byte_accounting(self):
        page = Page(1, 1)
        v = version(10)
        before = page.free_bytes
        page.insert(v)
        assert page.free_bytes == before - v.size_bytes - SLOT_BYTES
        assert page.used_bytes >= PAGE_HEADER_BYTES

    def test_page_fills_up(self):
        page = Page(1, 1, capacity_bytes=512)
        inserted = 0
        with pytest.raises(PageFullError):
            for i in range(100):
                page.insert(version(i))
                inserted += 1
        assert 0 < inserted < 100

    def test_remove_frees_space_and_slot_reuse(self):
        page = Page(1, 1)
        v = version(10)
        slot = page.insert(v)
        used = page.used_bytes
        removed = page.remove(slot)
        assert removed is v
        assert page.used_bytes == used - v.size_bytes
        # The freed slot is reused, so no extra slot overhead.
        slot2 = page.insert(version(11))
        assert slot2 == slot

    def test_get_empty_slot_raises(self):
        page = Page(1, 1)
        with pytest.raises(KeyError):
            page.get(0)
        slot = page.insert(version(1))
        page.remove(slot)
        with pytest.raises(KeyError):
            page.get(slot)

    def test_versions_iterates_occupied_only(self):
        page = Page(1, 1)
        s1 = page.insert(version(1))
        page.insert(version(2))
        page.remove(s1)
        keys = [v.key for _slot, v in page.versions()]
        assert keys == [2]


class TestSegment:
    def test_insert_lookup(self):
        seg = Segment(1, "t", max_pages=4, page_bytes=1024)
        loc = seg.insert_version(version(42))
        found = seg.versions_for(42)
        assert len(found) == 1
        assert found[0][:2] == loc
        assert found[0][2].key == 42

    def test_version_chain_newest_first(self):
        seg = Segment(1, "t", max_pages=4, page_bytes=1024)
        seg.insert_version(version(42, payload="old"))
        seg.insert_version(version(42, payload="new"))
        chain = seg.versions_for(42)
        assert [v.values[1] for _p, _s, v in chain] == ["new", "old"]
        assert seg.record_count == 1
        assert seg.version_count == 2

    def test_spills_to_new_pages(self):
        seg = Segment(1, "t", max_pages=10, page_bytes=512)
        for i in range(30):
            seg.insert_version(version(i))
        assert seg.page_count > 1
        assert seg.record_count == 30

    def test_segment_full(self):
        seg = Segment(1, "t", max_pages=1, page_bytes=512)
        with pytest.raises(SegmentFullError):
            for i in range(1000):
                seg.insert_version(version(i))

    def test_remove_version(self):
        seg = Segment(1, "t", max_pages=4, page_bytes=1024)
        pno, slot = seg.insert_version(version(42))
        removed = seg.remove_version(42, pno, slot)
        assert removed.key == 42
        assert seg.versions_for(42) == []
        assert seg.record_count == 0

    def test_remove_unknown_version(self):
        seg = Segment(1, "t", max_pages=4, page_bytes=1024)
        seg.insert_version(version(42))
        with pytest.raises(Exception):
            seg.remove_version(42, 3, 9)

    def test_remove_without_index_entry_changes_nothing(self):
        """The index entry is checked before the slot is freed: a remove
        the index does not know leaves the stored version, its chain,
        the dead set and the room bounds as they were."""
        seg = Segment(1, "t", max_pages=4, page_bytes=1024)
        stored = version((1,))
        stored.deleted_ts = 5
        assert seg.insert_version(stored) == (0, 0)
        bounds = list(seg._bounds)
        with pytest.raises(KeyError):
            seg.remove_version((2,), 0, 0)
        assert seg.version_count == 1
        assert seg.index.get((1,)) == [(0, 0)]
        assert seg.dead == {(0, 0): stored}
        assert list(seg._bounds) == bounds
        assert seg.remove_version((1,), 0, 0) is stored
        assert seg.dead == {}

    def test_page_left_empty_by_an_oversized_version_is_found_again(self):
        """A version no page can hold leaves the page appended for it
        empty; once the cursor's page fills, first fit goes back to it
        before the segment grows."""
        seg = Segment(1, "t", max_pages=10, page_bytes=512)
        for key in (1, 2):
            huge = RecordVersion(key=key, values=(key, ""), size_bytes=1000,
                                 created_by=1)
            with pytest.raises(PageFullError):
                seg.insert_version(huge)
        assert seg.page_count == 2
        placed = [seg.insert_version(version(key))[0] for key in range(17)]
        assert placed == [1] * 8 + [0] * 8 + [2]

    def test_placed_version_knows_its_slot(self):
        seg = Segment(1, "t", max_pages=10, page_bytes=512)
        for i in range(12):
            placed = version(i)
            assert seg.insert_version(placed) == (placed.page_no, placed.slot)
            assert seg.pages[placed.page_no].get(placed.slot) is placed
            assert placed.home is seg

    def test_scan_versions_physical_order(self):
        seg = Segment(1, "t", max_pages=10, page_bytes=512)
        for i in (5, 3, 9, 1):
            seg.insert_version(version(i))
        scanned = [v.key for _p, _s, v in seg.scan_versions()]
        assert scanned == [5, 3, 9, 1]  # insertion/physical order

    def test_index_scan_key_order(self):
        seg = Segment(1, "t", max_pages=10, page_bytes=512)
        for i in (5, 3, 9, 1):
            seg.insert_version(version(i))
        assert [k for k, _locs in seg.index_scan()] == [1, 3, 5, 9]
        assert [k for k, _locs in seg.index_scan(lo=3, hi=9)] == [3, 5]

    def test_min_max_keys(self):
        seg = Segment(1, "t", max_pages=10, page_bytes=512)
        for i in (5, 3, 9):
            seg.insert_version(version(i))
        assert seg.max_key() == 9

    def test_used_bytes_includes_old_versions(self):
        """The Fig. 3 measurement hook: old MVCC versions occupy space."""
        seg = Segment(1, "t", max_pages=10, page_bytes=1024)
        seg.insert_version(version(1))
        single = seg.used_bytes
        seg.insert_version(version(1))
        assert seg.used_bytes > single

    def test_page_ids_globally_unique_across_segments(self):
        seg_a = Segment(1, "t", max_pages=4, page_bytes=512)
        seg_b = Segment(2, "t", max_pages=4, page_bytes=512)
        seg_a.insert_version(version(1))
        seg_b.insert_version(version(2))
        assert seg_a.pages[0].page_id != seg_b.pages[0].page_id

    @settings(max_examples=25)
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=80))
    def test_property_segment_index_consistent(self, keys):
        seg = Segment(1, "t", max_pages=50, page_bytes=512)
        counts = {}
        for k in keys:
            seg.insert_version(version(k))
            counts[k] = counts.get(k, 0) + 1
        assert seg.record_count == len(counts)
        assert seg.version_count == len(keys)
        for k, n in counts.items():
            chain = seg.versions_for(k)
            assert len(chain) == n
            for pno, slot, v in chain:
                assert seg.pages[pno].get(slot) is v
