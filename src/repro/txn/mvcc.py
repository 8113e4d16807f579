"""Multiversion concurrency control: snapshot visibility and GC.

"MVCC allows multiple versions of DB objects to exist; modifying a
record creates a new version of it without deleting the old one
immediately.  Hence, readers can still access old versions ...
especially useful for dynamic partitioning techniques, where records
are frequently moved, i.e., deleted and re-created on another
partition." (Sect. 3.5)

These are pure data operations on segments; the caller (the worker's
access layer) charges CPU and buffer/page costs around them.
"""

from __future__ import annotations

import typing

from repro.storage.record import RecordVersion
from repro.storage.segment import Segment
from repro.txn.manager import TransactionAborted, WriteConflictError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.txn.manager import Transaction


class DuplicateKeyError(TransactionAborted):
    """An insert found a visible version of the key already present.

    An abortable condition: racing inserters roll back and retry
    instead of crashing the simulation.
    """


class NotVisibleError(RuntimeError):
    """An update or delete found no version of the key visible to the
    transaction: the router's cue to try the other end of a move."""


def is_visible(version: RecordVersion, txn: "Transaction") -> bool:
    """Snapshot-isolation visibility of one version to one transaction."""
    created_visible = (
        version.created_by == txn.txn_id
        or (version.created_ts is not None and version.created_ts <= txn.begin_ts)
    )
    if not created_visible:
        return False
    deleted_visible = (
        version.deleted_by == txn.txn_id
        or (version.deleted_ts is not None and version.deleted_ts <= txn.begin_ts)
    )
    return not deleted_visible


def visible_version(segment: Segment, key: typing.Any,
                    txn: "Transaction") -> RecordVersion | None:
    """The (unique) version of ``key`` visible to ``txn``, if any."""
    for _page_no, _slot, version in segment.versions_for(key):
        if is_visible(version, txn):
            return version
    return None


def writable_version(segment: Segment, key: typing.Any, txn: "Transaction",
                     missing_ok: bool = False) -> RecordVersion | None:
    """The version of ``key`` a write by ``txn`` supersedes, from one
    walk of the chain.

    First updater wins: ``WriteConflictError`` when the newest version
    was created or delete-marked by a *different* transaction that is
    still in flight or committed after our snapshot.  Without a
    conflict, no visible version raises ``NotVisibleError``.  With
    ``missing_ok`` (the record mover) a key with no visible version
    returns ``None`` before any conflict test: it is dead, not
    contended.
    """
    chain = segment.versions_for(key)
    current = None
    for _page_no, _slot, version in chain:
        if is_visible(version, txn):
            current = version
            break
    if current is None and missing_ok:
        return None
    if chain:
        newest = chain[0][2]
        me, snapshot = txn.txn_id, txn.begin_ts
        if newest.created_by != me and (newest.created_ts is None
                                        or newest.created_ts > snapshot):
            raise WriteConflictError(f"write-write conflict on key {key!r}")
        if newest.deleted_by is not None and newest.deleted_by != me and (
                newest.deleted_ts is None or newest.deleted_ts > snapshot):
            raise WriteConflictError(f"write-write conflict on key {key!r}")
    if current is None:
        raise NotVisibleError(f"key {key!r} not visible to txn {txn.txn_id}")
    return current


def insert(segment: Segment, version: RecordVersion,
           txn: "Transaction") -> tuple[int, int]:
    """Insert a brand-new record version; duplicate-key checked against
    the transaction's snapshot."""
    txn.require_writable()
    existing = visible_version(segment, version.key, txn)
    if existing is not None:
        raise DuplicateKeyError(f"key {version.key!r} already visible")
    location = segment.insert_version(version)
    txn.note_created(segment, version, location)
    return location


def update(segment: Segment, key: typing.Any, new_version: RecordVersion,
           txn: "Transaction") -> tuple[int, int]:
    """Delete-mark the visible version and chain a new one."""
    txn.require_writable()
    current = writable_version(segment, key, txn)
    current.deleted_by = txn.txn_id
    txn.note_deleted(segment, current)
    # Version chains may overflow the extent until vacuum runs.
    location = segment.insert_version(new_version, allow_overflow=True)
    txn.note_created(segment, new_version, location)
    return location


def delete(segment: Segment, key: typing.Any, txn: "Transaction",
           missing_ok: bool = False) -> RecordVersion | None:
    """Delete-mark the visible version of ``key`` and return it (or
    ``None`` under ``missing_ok`` when none is visible: see
    :func:`writable_version`)."""
    txn.require_writable()
    current = writable_version(segment, key, txn, missing_ok)
    if current is not None:
        current.deleted_by = txn.txn_id
        txn.note_deleted(segment, current)
    return current


def vacuum(segment: Segment, horizon_ts: int) -> int:
    """Garbage-collect versions deleted before every active snapshot.

    Returns the number of versions reclaimed.  This is what eventually
    returns the MVCC storage overhead of Fig. 3 back to baseline.
    """
    reclaimed, _exhausted = vacuum_chunk(segment, horizon_ts, limit=None)
    return reclaimed


def vacuum_chunk(segment: Segment, horizon_ts: int,
                 limit: int | None = None) -> tuple[int, bool]:
    """Bounded vacuum: reclaim at most ``limit`` dead versions.

    Returns ``(reclaimed, exhausted)``; ``exhausted`` is True when the
    segment holds no further reclaimable versions at this horizon, so a
    resumable scheduler knows whether to revisit the segment next tick
    or move on.  ``limit=None`` degenerates to a full sweep.  Only the
    segment's stamped deletes (``Segment.dead``) are visited, in
    ``(page_no, slot)`` order — the order of a physical scan.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"vacuum limit must be None or >= 1, not {limit!r}")
    dead = segment.dead
    reclaim: list[tuple[typing.Any, int, int]] = []
    exhausted = True
    for location in sorted(dead):
        version = dead[location]
        if version.deleted_ts < horizon_ts:
            reclaim.append((version.key, *location))
            if limit is not None and len(reclaim) >= limit:
                exhausted = False
                break
    for key, page_no, slot in reclaim:
        segment.remove_version(key, page_no, slot)
    return len(reclaim), exhausted
