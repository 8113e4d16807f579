"""Crash recovery from the write-ahead log.

"In case of DB failures, the log file is needed to reconstruct
partitions and to perform appropriate UNDO and REDO operations."
(Sect. 4.3)  This module implements the REDO side of that contract:
rebuilding a node's partition contents from its WAL after a crash,
starting at the last checkpoint.

The log records written by the access layer carry logical payloads —
``(table, key, values)`` for inserts/updates, ``(table, key)`` for
deletes — so recovery replays them through fresh partitions.  Segment
moves append checkpoints, which is why "log files remain on the
original node" is safe: everything after the checkpoint concerns only
data still owned locally.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.index.partition_tree import Forwarding
from repro.storage.checksum import IntegrityError
from repro.storage.record import RecordVersion
from repro.txn.wal import LogManager, LogRecord

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition

#: Pseudo transaction id/timestamp for replayed (committed) state.
REDO_TXN_ID = -1

#: Every REDO pass stamps the versions it rebuilds with its own
#: synthetic writer id (-10001, -10002, ...).  Version identity is
#: ``(created_by, created_ts)`` — the isolation auditor keys on it —
#: so reusing one constant would alias a key's rebuilt copy with its
#: pre-crash copy and report phantom lost updates across a failover.
#: The range sits far below the torn-write ids (-1000 down) and the
#: replica base id (-2).
_REDO_WRITER_BASE = -10_000
_redo_generations = itertools.count(1)


def _fresh_redo_writer() -> int:
    return _REDO_WRITER_BASE - next(_redo_generations)


@dataclasses.dataclass
class RecoveryReport:
    """What a recovery pass did."""

    analyzed_records: int = 0
    committed_transactions: int = 0
    losers_discarded: int = 0
    redone_inserts: int = 0
    redone_updates: int = 0
    redone_deletes: int = 0
    start_lsn: int = 0
    #: Rows loaded from a fuzzy-checkpoint base image before REDO.
    image_rows: int = 0
    #: Records discarded as a torn WAL tail (a crash mid-flush left a
    #: corrupt suffix; nothing in it was ever acknowledged).
    torn_records_discarded: int = 0

    @property
    def redone_total(self) -> int:
        return self.redone_inserts + self.redone_updates + self.redone_deletes


def last_checkpoint_lsn(log: LogManager) -> int:
    """The LSN of the most recent checkpoint record (0 if none)."""
    return log.last_checkpoint_lsn


def redo_start_lsn(log: LogManager) -> int:
    """Where REDO begins: the newest checkpoint's ``redo_lsn`` when it
    carries a fuzzy-checkpoint payload, otherwise the checkpoint's own
    LSN (the historical move-checkpoint semantics), 0 with no
    checkpoint at all."""
    return log.last_checkpoint_redo_lsn


def integrity_scan(log: LogManager, start_lsn: int = 0
                   ) -> tuple[list[LogRecord], int]:
    """Verify every record's checksum before replay.

    Returns ``(verified_records, torn_discarded)``.  A corrupt record
    with *no* valid record after it is a **torn tail**: a crash mid
    log-flush persisted only a prefix of the last write(s).  Nothing
    in the torn suffix was ever acknowledged (the flush never
    returned), so it is discarded — notably, a torn *commit* record
    does NOT make its transaction committed.  A corrupt record that is
    *followed* by valid records cannot be explained by a torn flush —
    that is mid-log bit rot, and replaying around it could resurrect
    or drop acknowledged effects, so it raises ``IntegrityError`` and
    the caller must fall back to another replica or fence.
    """
    records = list(log.iter_from(start_lsn))
    bad = None
    for i, record in enumerate(records):
        try:
            record.verify(where="wal-replay")
        except IntegrityError:
            bad = i
            break
    if bad is None:
        return records, 0
    for later in records[bad + 1:]:
        try:
            later.verify(where="wal-replay")
        except IntegrityError:
            continue
        raise IntegrityError(
            f"mid-log corruption: record lsn={records[bad].lsn} of "
            f"{log.name} fails its "
            f"checksum but valid records follow",
            where="wal-replay", detail=records[bad].lsn,
        )
    return records[:bad], len(records) - bad


def analyze(log: LogManager, start_lsn: int = 0,
            report: RecoveryReport | None = None
            ) -> tuple[list[LogRecord], set[int], int]:
    """ARIES-style analysis pass (simplified): the data records after
    ``start_lsn``, the set of committed transaction ids, and the count
    of loser transactions whose effects must not be replayed.

    Every scanned record is checksum-verified first (see
    :func:`integrity_scan`); a torn tail is discarded and counted on
    ``report``, mid-log corruption propagates as ``IntegrityError``.
    """
    committed: set[int] = set()
    aborted: set[int] = set()
    seen: set[int] = set()
    data_records: list[LogRecord] = []
    records, torn = integrity_scan(log, start_lsn)
    if report is not None:
        report.torn_records_discarded = torn
    for record in records:
        if record.kind == "commit":
            committed.add(record.txn_id)
        if record.kind == "abort":
            # An abort supersedes a commit of the same transaction —
            # the pair coexists only when a crash-abort raced a
            # mid-flight commit, and the abort matches what happened
            # in memory.
            aborted.add(record.txn_id)
        if record.kind in ("insert", "update", "delete"):
            seen.add(record.txn_id)
            data_records.append(record)
    committed -= aborted
    losers = len(seen - committed)
    return data_records, committed, losers


def redo(partitions_by_table: dict[str, "Partition"],
         records: typing.Sequence[LogRecord],
         committed: set[int],
         writer: int | None = None) -> RecoveryReport:
    """Replay committed data records, in log order, into fresh
    partitions.

    Records of loser transactions are skipped (their effects were never
    durable: under the no-steal-ish discipline here, uncommitted pages
    may be on disk but the rebuilt state simply omits them — the
    classic logical-UNDO shortcut).
    """
    report = RecoveryReport(analyzed_records=len(records),
                            committed_transactions=len(committed))
    if writer is None:
        writer = _fresh_redo_writer()
    for record in records:
        if record.txn_id not in committed:
            continue
        table = record.payload[0] if record.payload else None
        if table is None or table not in partitions_by_table:
            continue
        partition = partitions_by_table[table]
        if record.kind in ("insert", "update"):
            _table, _key, values = record.payload
            _apply_upsert(partition, tuple(values), record.kind, report,
                          writer)
        elif record.kind == "delete":
            _table, key = record.payload
            _apply_delete(partition, key, report)
    return report


def _apply_upsert(partition: "Partition", values: tuple, kind: str,
                  report: RecoveryReport,
                  writer: int = REDO_TXN_ID) -> None:
    schema = partition.schema
    key = schema.key_of(values)
    segment = partition.ensure_segment_for(key)
    # Newer version wins: mark any existing replayed version deleted.
    for page_no, slot, version in list(segment.versions_for(key)):
        segment.remove_version(key, page_no, slot)
    version = RecordVersion.make(schema, values, writer)
    version.created_ts = 1
    segment.insert_version(version, allow_overflow=True)
    if kind == "insert":
        report.redone_inserts += 1
    else:
        report.redone_updates += 1


def _apply_delete(partition: "Partition", key, report: RecoveryReport) -> None:
    target = partition.segment_for(key)
    if target is None or isinstance(target, Forwarding):
        return
    for page_no, slot, _version in list(target.versions_for(key)):
        target.remove_version(key, page_no, slot)
    report.redone_deletes += 1


def recover_worker_table(log: LogManager, partition: "Partition",
                         table: str,
                         from_checkpoint: bool = True,
                         image=None) -> RecoveryReport:
    """Rebuild one table's local partition from the node's WAL.

    With ``from_checkpoint`` (the normal case), replay starts at the
    last checkpoint — segment moves act as checkpoints, so records
    moved away before the crash are intentionally NOT resurrected here
    (they live on, and are logged by, their new owner).

    ``image`` is a fuzzy-checkpoint base image (see
    :mod:`repro.txn.checkpoint`): the partition rows that were durable
    when the newest checkpoint was taken.  When it matches the log's
    newest checkpoint, its rows are loaded first and REDO replays only
    the bounded suffix from the checkpoint's ``redo_lsn`` — the whole
    point of fuzzy checkpoints.  A stale image (a newer move
    checkpoint has been written since) is ignored.
    """
    if not from_checkpoint:
        start = 0
        image = None
    else:
        if image is not None and \
                image.checkpoint_lsn != last_checkpoint_lsn(log):
            image = None
        start = redo_start_lsn(log)
    # ``redo_lsn`` points AT the first record REDO must replay (the
    # oldest in-flight transaction's first write), so analysis begins
    # one LSN earlier — analyze() iterates strictly after its argument.
    report = RecoveryReport()
    records, committed, losers = analyze(log, max(start - 1, 0), report)
    if report.torn_records_discarded:
        # Physically drop the torn suffix (real recovery truncates the
        # tail it discards) so post-restart appends don't turn the torn
        # record into apparent mid-log corruption for later replays.
        log.discard_tail(report.torn_records_discarded)
    writer = _fresh_redo_writer()
    if image is not None:
        for key, values, _nbytes in image.rows:
            _apply_upsert(partition, tuple(values), "insert", report,
                          writer)
        report.image_rows = report.redone_inserts
        report.redone_inserts = 0
    tail = redo({table: partition}, records, committed, writer)
    report.analyzed_records = tail.analyzed_records
    report.committed_transactions = tail.committed_transactions
    report.redone_inserts += tail.redone_inserts
    report.redone_updates = tail.redone_updates
    report.redone_deletes = tail.redone_deletes
    report.losers_discarded = losers
    report.start_lsn = start
    return report
