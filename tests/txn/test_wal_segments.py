"""The WAL's record store: LSN-exact recycling, the bounded REDO scan,
and the sequence shape of ``records``.

The log is one deque of records; ``truncate_before`` pops exactly the
records below the horizon (the returned cut count and the surviving
records are those of a list slice).
"""

from repro.hardware import Disk, SSD_SPEC
from repro.sim import Environment
from repro.txn import LogManager


def make_log():
    env = Environment()
    disk = Disk(env, SSD_SPEC, name="logdisk")
    return env, disk, LogManager(env, disk)


class TestSegmentLifecycle:
    def test_truncate_is_lsn_exact_within_a_segment(self):
        """A horizon trims the record prefix exactly."""
        _env, _disk, log = make_log()
        for i in range(8):
            log.append(1, "insert", payload=i)
        cut = log.truncate_before(4)
        assert cut == 3
        assert [r.lsn for r in log.records] == [4, 5, 6, 7, 8]
        # Second exact cut.
        assert log.truncate_before(6) == 2
        assert [r.lsn for r in log.records] == [6, 7, 8]
        stats = log.stats()
        assert stats["records_truncated"] == 5
        assert stats["live_records"] == log.live_records == 3
        assert stats["live_bytes"] == sum(r.nbytes for r in log.records)

    def test_truncate_never_drops_the_tail_segment(self):
        _env, _disk, log = make_log()
        for i in range(6):
            log.append(1, "insert", payload=i)
        cut = log.truncate_before(10_000)      # horizon past the tail
        assert cut == 6
        assert log.live_records == 0
        # Appends continue with the next LSN as if nothing happened.
        assert log.append(2, "insert") == 7
        assert [r.lsn for r in log.records] == [7]


class TestIterFrom:
    def test_iter_from_skips_sealed_segments(self):
        _env, _disk, log = make_log()
        for i in range(12):
            log.append(1, "insert", payload=i)
        assert [r.lsn for r in log.iter_from(9)] == [10, 11, 12]
        assert [r.lsn for r in log.iter_from(0)] == list(range(1, 13))
        assert list(log.iter_from(12)) == []

    def test_iter_from_binary_searches_boundary_segment(self):
        _env, _disk, log = make_log()
        for i in range(8):
            log.append(1, "insert", payload=i)
        assert [r.lsn for r in log.iter_from(5)] == [6, 7, 8]

    def test_iter_from_after_truncation(self):
        _env, _disk, log = make_log()
        for i in range(12):
            log.append(1, "insert", payload=i)
        log.truncate_before(7)
        assert [r.lsn for r in log.iter_from(8)] == [9, 10, 11, 12]

    def test_iter_from_across_a_discarded_tail(self):
        """LSNs are not reissued after ``discard_tail``, so the sequence
        has a hole; the scan still starts at the first larger LSN."""
        _env, _disk, log = make_log()
        for i in range(8):
            log.append(1, "insert", payload=i)
        assert log.discard_tail(3) == 3
        for i in range(3):
            log.append(1, "insert", payload=100 + i)
        assert [r.lsn for r in log.records] == [1, 2, 3, 4, 5, 9, 10, 11]
        for lsn in range(13):
            assert [r.lsn for r in log.iter_from(lsn)] == \
                [l for l in (1, 2, 3, 4, 5, 9, 10, 11) if l > lsn]
        log.truncate_before(3)
        assert [r.lsn for r in log.iter_from(6)] == [9, 10, 11]


class TestRecordsView:
    """The ``records`` attribute is sequence-shaped: len, iteration,
    ``reversed``, integer indexing."""

    def test_reversed_iteration(self):
        _env, _disk, log = make_log()
        for i in range(7):
            log.append(1, "insert", payload=i)
        assert [r.payload for r in reversed(log.records)] == \
            list(reversed(range(7)))

    def test_tail_matches_last_index(self):
        _env, _disk, log = make_log()
        for i in range(5):
            log.append(1, "insert", payload=i)
        assert log.tail is log.records[-1]
        assert [log.records[i].payload for i in range(5)] == list(range(5))


class TestActiveTxnTracking:
    def test_oldest_active_redo_lsn(self):
        _env, _disk, log = make_log()
        assert log.oldest_active_redo_lsn() is None
        log.append(7, "insert")                # lsn 1
        log.append(8, "insert")                # lsn 2
        assert log.oldest_active_redo_lsn() == 1
        log.append(7, "commit")
        assert log.oldest_active_redo_lsn() == 2
        log.append(8, "abort")
        assert log.oldest_active_redo_lsn() is None
