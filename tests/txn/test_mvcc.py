"""MVCC semantics: snapshot isolation, conflicts, vacuum."""

import pytest

from repro.sim import Environment
from repro.storage import Column, RecordVersion, Schema, Segment
from repro.txn import TransactionManager, WriteConflictError, mvcc
from repro.txn.mvcc import DuplicateKeyError


@pytest.fixture()
def setup():
    env = Environment()
    tm = TransactionManager(env)
    schema = Schema([Column("id"), Column("v", "str", width=32)], key=("id",))
    segment = Segment(1, "t", max_pages=32, page_bytes=1024)
    return env, tm, schema, segment


def commit(env, tm, txn):
    env.run(until=env.process(tm.commit(txn)))


def ver(schema, key, value, txn):
    return RecordVersion.make(schema, (key, value), created_by=txn.txn_id)


def test_own_writes_visible(setup):
    env, tm, schema, seg = setup
    txn = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "a", txn), txn)
    assert mvcc.visible_version(seg, 1, txn).values == (1, "a")


def test_uncommitted_writes_invisible_to_others(setup):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "a", writer), writer)
    reader = tm.begin()
    assert mvcc.visible_version(seg, 1, reader) is None


def test_committed_writes_visible_to_later_snapshots(setup):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "a", writer), writer)
    commit(env, tm, writer)
    reader = tm.begin()
    assert mvcc.visible_version(seg, 1, reader).values == (1, "a")


def test_snapshot_ignores_later_commits(setup):
    """A reader that began first keeps seeing the old state."""
    env, tm, schema, seg = setup
    writer1 = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "old", writer1), writer1)
    commit(env, tm, writer1)

    reader = tm.begin()  # snapshot taken now
    writer2 = tm.begin()
    mvcc.update(seg, 1, ver(schema, 1, "new", writer2), writer2)
    commit(env, tm, writer2)

    assert mvcc.visible_version(seg, 1, reader).values == (1, "old")
    late_reader = tm.begin()
    assert mvcc.visible_version(seg, 1, late_reader).values == (1, "new")


def test_update_keeps_old_version_readable(setup):
    """The property the paper relies on during record movement."""
    env, tm, schema, seg = setup
    writer1 = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "old", writer1), writer1)
    commit(env, tm, writer1)

    writer2 = tm.begin()
    mvcc.update(seg, 1, ver(schema, 1, "new", writer2), writer2)
    # Uncommitted update: other snapshots still read "old".
    reader = tm.begin()
    assert mvcc.visible_version(seg, 1, reader).values == (1, "old")
    assert seg.version_count == 2  # both versions occupy space


def test_delete_hides_record_after_commit(setup):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "a", writer), writer)
    commit(env, tm, writer)

    deleter = tm.begin()
    mvcc.delete(seg, 1, deleter)
    commit(env, tm, deleter)

    reader = tm.begin()
    assert mvcc.visible_version(seg, 1, reader) is None
    # The dead version still occupies space until vacuum.
    assert seg.version_count == 1


def test_duplicate_insert_rejected(setup):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "a", writer), writer)
    commit(env, tm, writer)
    other = tm.begin()
    with pytest.raises(DuplicateKeyError):
        mvcc.insert(seg, ver(schema, 1, "b", other), other)


def test_write_write_conflict_with_inflight_txn(setup):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "a", writer), writer)
    commit(env, tm, writer)

    t1 = tm.begin()
    t2 = tm.begin()
    mvcc.update(seg, 1, ver(schema, 1, "t1", t1), t1)
    with pytest.raises(WriteConflictError):
        mvcc.update(seg, 1, ver(schema, 1, "t2", t2), t2)


def test_first_committer_wins_against_stale_snapshot(setup):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "a", writer), writer)
    commit(env, tm, writer)

    stale = tm.begin()
    fast = tm.begin()
    mvcc.update(seg, 1, ver(schema, 1, "fast", fast), fast)
    commit(env, tm, fast)
    with pytest.raises(WriteConflictError):
        mvcc.update(seg, 1, ver(schema, 1, "stale", stale), stale)


def test_update_missing_key(setup):
    env, tm, schema, seg = setup
    txn = tm.begin()
    with pytest.raises(mvcc.NotVisibleError):
        mvcc.update(seg, 99, ver(schema, 99, "x", txn), txn)
    with pytest.raises(mvcc.NotVisibleError):
        mvcc.delete(seg, 99, txn)


def test_abort_removes_created_versions(setup):
    env, tm, schema, seg = setup
    txn = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "a", txn), txn)
    tm.abort(txn)
    assert seg.version_count == 0
    reader = tm.begin()
    assert mvcc.visible_version(seg, 1, reader) is None


def test_abort_unwinds_update(setup):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "keep", writer), writer)
    commit(env, tm, writer)

    txn = tm.begin()
    mvcc.update(seg, 1, ver(schema, 1, "gone", txn), txn)
    tm.abort(txn)

    reader = tm.begin()
    assert mvcc.visible_version(seg, 1, reader).values == (1, "keep")
    assert seg.version_count == 1


def test_aborted_txn_cannot_commit(setup):
    env, tm, schema, seg = setup
    txn = tm.begin()
    tm.abort(txn)
    with pytest.raises(Exception):
        commit(env, tm, txn)


def test_vacuum_reclaims_old_versions(setup):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "v1", writer), writer)
    commit(env, tm, writer)
    for value in ("v2", "v3"):
        t = tm.begin()
        mvcc.update(seg, 1, ver(schema, 1, value, t), t)
        commit(env, tm, t)
    assert seg.version_count == 3

    reclaimed = mvcc.vacuum(seg, tm.oldest_active_begin_ts())
    assert reclaimed == 2
    assert seg.version_count == 1
    reader = tm.begin()
    assert mvcc.visible_version(seg, 1, reader).values == (1, "v3")


def test_vacuum_respects_active_snapshots(setup):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "v1", writer), writer)
    commit(env, tm, writer)

    old_reader = tm.begin()  # holds the horizon back
    t = tm.begin()
    mvcc.update(seg, 1, ver(schema, 1, "v2", t), t)
    commit(env, tm, t)

    reclaimed = mvcc.vacuum(seg, tm.oldest_active_begin_ts())
    assert reclaimed == 0
    assert mvcc.visible_version(seg, 1, old_reader).values == (1, "v1")


@pytest.mark.parametrize("limit", [0, -1])
def test_vacuum_limit_must_be_none_or_at_least_one(setup, limit):
    env, tm, schema, seg = setup
    writer = tm.begin()
    mvcc.insert(seg, ver(schema, 1, "v1", writer), writer)
    commit(env, tm, writer)
    t = tm.begin()
    mvcc.update(seg, 1, ver(schema, 1, "v2", t), t)
    commit(env, tm, t)
    with pytest.raises(ValueError, match="limit"):
        mvcc.vacuum_chunk(seg, tm.oldest_active_begin_ts(), limit=limit)
    assert seg.version_count == 2
    assert mvcc.vacuum_chunk(seg, tm.oldest_active_begin_ts(), 1) == (1, False)


def test_oldest_active_begin_ts_advances(setup):
    env, tm, schema, seg = setup
    t1 = tm.begin()
    horizon_before = tm.oldest_active_begin_ts()
    tm.abort(t1)
    assert tm.oldest_active_begin_ts() > horizon_before
