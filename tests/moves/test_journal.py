"""Unit tests for the durable move journal: phase transitions, chunk
checkpoints, resume lookup, accounting, and WAL mirroring."""

import pytest

from repro.core.physiological import collect_range_stats
from repro.core.schemes import MoveReport
from repro.moves import (
    ABORTED,
    COPY,
    DONE,
    FAILED,
    MoveJournal,
    PREPARE,
    SPLIT,
    SWITCH,
)


class FakeWal:
    def __init__(self):
        self.records = []

    def append(self, txn_id, kind, payload):
        self.records.append((txn_id, kind, payload))


def open_move(journal, segment_id=7, source=1, target=2,
              bytes_total=8192, chunk_bytes=2048, **kw):
    return journal.open_segment_move(
        segment_id, source, target, bytes_total, chunk_bytes, **kw
    )


class TestSegmentEntries:
    def test_open_entry_starts_in_prepare_with_fresh_id(self):
        journal = MoveJournal()
        a = open_move(journal)
        b = open_move(journal, segment_id=8)
        assert a.phase == PREPARE and a.is_open
        assert b.move_id > a.move_id
        assert journal.open_segment_moves() == [a, b]

    def test_chunk_acks_advance_the_resume_point(self):
        journal = MoveJournal()
        entry = open_move(journal, bytes_total=5000, chunk_bytes=2048)
        journal.advance(entry, COPY)
        journal.ack_chunk(entry, 2048)
        journal.ack_chunk(entry, 2048)
        assert entry.chunks_acked == 2
        assert entry.bytes_shipped == 4096

    def test_advance_on_closed_entry_is_refused(self):
        journal = MoveJournal()
        entry = open_move(journal)
        journal.advance(entry, ABORTED, "test")
        assert not entry.is_open
        with pytest.raises(RuntimeError):
            journal.advance(entry, COPY)

    def test_resumable_lookup_matches_open_same_endpoint_entries_only(self):
        journal = MoveJournal()
        closed = open_move(journal, segment_id=7)
        journal.advance(closed, ABORTED, "rolled back")
        other = open_move(journal, segment_id=7, source=1, target=3)
        assert other is not None
        live = open_move(journal, segment_id=7, source=1, target=2)
        found = journal.resumable_segment_move(7, 1, 2)
        assert found is live
        assert journal.resumable_segment_move(7, 2, 1) is None
        assert journal.resumable_segment_move(9, 1, 2) is None

    def test_a_second_open_entry_for_an_open_triple_is_refused(self):
        journal = MoveJournal()
        first = open_move(journal)
        with pytest.raises(RuntimeError):
            open_move(journal)
        assert journal.resumable_segment_move(7, 1, 2) is first
        journal.advance(first, ABORTED, "rolled back")
        assert open_move(journal) is not first

    def test_open_moves_involving_filters_by_endpoint(self):
        journal = MoveJournal()
        a = open_move(journal, segment_id=1, source=1, target=2)
        b = open_move(journal, segment_id=2, source=3, target=4)
        segs, _ranges = journal.open_moves_involving(2)
        assert segs == [a]
        segs, _ranges = journal.open_moves_involving(3)
        assert segs == [b]
        segs, _ranges = journal.open_moves_involving(9)
        assert segs == []


class TestRangeEntries:
    def test_range_entry_lifecycle(self):
        journal = MoveJournal()
        entry = journal.open_range_move("kv", 1, 2, 1, 2, SPLIT)
        assert entry.is_open and entry.segments_switched == 0
        journal.note_segment_switched(entry)
        journal.note_segment_switched(entry)
        assert entry.segments_switched == 2
        journal.advance_range(entry, DONE)
        assert not entry.is_open
        with pytest.raises(RuntimeError):
            journal.advance_range(entry, COPY)
        assert journal.open_range_moves() == []

    def test_range_entry_keeps_its_closed_segment_moves(self):
        """A closed segment move leaves its retries, resumes and
        re-shipped bytes on its owning range entry, and nothing on an
        unrelated one — also an attempt counted after failover closed
        it mid-chunk."""
        journal = MoveJournal()
        range_entry = journal.open_range_move("kv", 1, 2, 1, 2, SPLIT)
        inside = open_move(journal, range_move_id=range_entry.move_id)
        journal.note_retry(inside, 2048)
        journal.ack_chunk(inside, 2048)
        unrelated = open_move(journal, segment_id=8)
        journal.note_retry(unrelated, 512)
        journal.advance(inside, ABORTED, "rolled back")
        journal.advance(unrelated, DONE)
        assert (range_entry.retries, range_entry.resumes,
                range_entry.bytes_reshipped) == (1, 0, 2048)
        journal.note_retry(inside, 1024)  # its chunk was in flight
        journal.ack_chunk(inside, 256)
        assert (range_entry.retries, range_entry.resumes,
                range_entry.bytes_reshipped) == (2, 1, 3072)
        assert journal.open_segment_moves() == []
        summary = journal.stats()
        assert (summary["moves_total"], summary["retries_total"],
                summary["resumes_total"], summary["bytes_shipped"],
                summary["bytes_reshipped"]) == (2, 3, 1, 2304, 3584)
        still_open = open_move(journal, segment_id=9,
                               range_move_id=range_entry.move_id)
        journal.note_retry(still_open, 100)
        report = MoveReport("physiological", "kv", 1, 2)
        collect_range_stats(journal, range_entry, report)
        assert (report.retries, report.resumes,
                report.bytes_reshipped) == (3, 1, 3172)
        summary = journal.stats()
        assert (summary["moves_total"], summary["retries_total"],
                summary["bytes_reshipped"], summary["open_moves"]) == (
                    3, 4, 3684, 1)


class TestAccounting:
    def test_summary_buckets_first_try_retried_and_terminal_phases(self):
        journal = MoveJournal()
        clean = open_move(journal, segment_id=1)
        journal.advance(clean, DONE)
        retried = open_move(journal, segment_id=2)
        retried.retries = 3
        retried.resumes = 1
        retried.bytes_reshipped = 2048
        journal.advance(retried, DONE)
        aborted = open_move(journal, segment_id=3)
        journal.advance(aborted, ABORTED, "rolled back")
        failed = open_move(journal, segment_id=4)
        journal.advance(failed, FAILED, "failover")
        still_open = open_move(journal, segment_id=5)
        journal.advance(still_open, COPY)

        summary = journal.stats()
        assert summary["moves_total"] == 5
        assert summary["first_try_moves"] == 1
        assert summary["retried_moves"] == 1
        assert summary["resumed_moves"] == 1
        assert summary["rolled_back_moves"] == 1
        assert summary["failed_moves"] == 1
        assert summary["retries_total"] == 3
        assert summary["bytes_reshipped"] == 2048
        assert summary["open_moves"] == 1

    def test_resumed_move_completed_needs_part_of_the_bytes_reshipped(self):
        journal = MoveJournal()
        for reshipped in (0, 8192):  # nothing / everything re-shipped
            entry = open_move(journal, bytes_total=8192)
            journal.ack_chunk(entry, 2048)
            journal.note_retry(entry, reshipped)
            journal.advance(entry, DONE)
        assert journal.stats()["resumed_moves"] == 2
        assert not journal.resumed_move_completed
        entry = open_move(journal, bytes_total=8192)
        journal.ack_chunk(entry, 2048)
        journal.note_retry(entry, 2048)
        journal.advance(entry, DONE)
        assert journal.resumed_move_completed

    def test_every_transition_is_mirrored_into_the_wal(self):
        wal = FakeWal()
        journal = MoveJournal(wal=wal)
        entry = open_move(journal)
        journal.advance(entry, COPY)
        journal.ack_chunk(entry, 2048)
        journal.advance(entry, SWITCH)
        journal.advance(entry, DONE)
        range_entry = journal.open_range_move("kv", 1, 2, 1, 2, SPLIT)
        journal.note_segment_switched(range_entry)
        journal.advance_range(range_entry, DONE)
        kinds = [kind for _txn, kind, _payload in wal.records]
        assert kinds == [
            "move", "move", "move-chunk", "move", "move",
            "range-move", "range-move-progress", "range-move",
        ]
