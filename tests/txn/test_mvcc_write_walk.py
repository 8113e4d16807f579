"""One walk equals two: ``mvcc.writable_version`` takes a key's version
chain once and decides exactly as the conflict test followed by the
visibility walk did, for the writers (``update`` / ``delete``) and for
the record mover (``delete(..., missing_ok=True)``)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import RecordVersion, Segment
from repro.txn import WriteConflictError, mvcc
from repro.txn.manager import Transaction
from repro.txn.mvcc import NotVisibleError

ME, OTHER = 10, 20
SNAPSHOT = 100
#: When a creating or deleting transaction committed, relative to the
#: writer's snapshot; ``None`` is still in flight.
STAMPS = {"before": SNAPSHOT - 50, "at": SNAPSHOT, "after": SNAPSHOT + 50,
          "in-flight": None}

stamp = st.sampled_from(sorted(STAMPS))
#: One stored version: who created it and when it committed, and who
#: delete-marked it (if anyone) and when that committed.  A transaction
#: sees its own writes uncommitted, so a version by ``ME`` is in flight.
version_spec = st.tuples(
    st.sampled_from([ME, OTHER]), stamp,
    st.sampled_from([None, ME, OTHER]), stamp,
)


def build(specs) -> Segment:
    """A segment whose key-1 chain holds ``specs``, newest first."""
    segment = Segment(1, "t", max_pages=8, page_bytes=1024)
    for creator, created, deleter, deleted in reversed(specs):
        segment.insert_version(RecordVersion(
            key=1, values=(1, "v"), size_bytes=40, created_by=creator,
            created_ts=None if creator == ME else STAMPS[created],
            deleted_by=deleter,
            deleted_ts=None if deleter in (None, ME) else STAMPS[deleted],
        ), allow_overflow=True)
    return segment


def conflicts(newest: RecordVersion, txn: Transaction) -> bool:
    """The first-updater-wins test as it read before the single walk."""
    if newest.created_by != txn.txn_id:
        if newest.created_ts is None or newest.created_ts > txn.begin_ts:
            return True
    if newest.deleted_by is not None and newest.deleted_by != txn.txn_id:
        if newest.deleted_ts is None or newest.deleted_ts > txn.begin_ts:
            return True
    return False


def visible(segment: Segment, txn: Transaction) -> RecordVersion | None:
    for _page_no, _slot, version in segment.versions_for(1):
        if mvcc.is_visible(version, txn):
            return version
    return None


def reference(segment: Segment, txn: Transaction, mover: bool):
    """Two walks: the writer tests for a conflict and then looks for
    the visible version; the mover looks first and calls a key with
    nothing visible dead."""
    chain = segment.versions_for(1)
    if mover:
        current = visible(segment, txn)
        if current is None:
            return None
    if chain and conflicts(chain[0][2], txn):
        return WriteConflictError
    current = visible(segment, txn)
    if current is None:
        return NotVisibleError
    return current


def outcome(call):
    try:
        return call()
    except (WriteConflictError, NotVisibleError) as error:
        return type(error)


def marks(segment: Segment) -> list:
    return [version.deleted_by for _p, _s, version in segment.versions_for(1)]


@settings(max_examples=300, deadline=None)
@given(st.lists(version_spec, max_size=4), st.booleans())
def test_one_walk_decides_as_two(specs, mover):
    segment = build(specs)
    txn = Transaction(ME, SNAPSHOT)
    expected = reference(segment, txn, mover)
    assert outcome(lambda: mvcc.writable_version(
        segment, 1, txn, missing_ok=mover)) is expected

    before = marks(segment)
    got = outcome(lambda: mvcc.delete(segment, 1, txn, missing_ok=mover))
    assert got is expected
    if isinstance(expected, RecordVersion):
        assert expected.deleted_by == ME
        assert txn._deleted == [(segment, expected)]
    else:
        assert marks(segment) == before
        assert txn._deleted == []


@settings(max_examples=200, deadline=None)
@given(st.lists(version_spec, max_size=4))
def test_update_supersedes_what_two_walks_found(specs):
    segment = build(specs)
    txn = Transaction(ME, SNAPSHOT)
    expected = reference(segment, txn, mover=False)
    new = RecordVersion(key=1, values=(1, "w"), size_bytes=40, created_by=ME)
    got = outcome(lambda: mvcc.update(segment, 1, new, txn))
    if isinstance(expected, RecordVersion):
        page_no, slot, newest = segment.versions_for(1)[0]
        assert got == (page_no, slot) and newest is new
        assert expected.deleted_by == ME
    else:
        assert got is expected
        assert all(version is not new
                   for _p, _s, version in segment.versions_for(1))
