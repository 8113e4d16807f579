"""Logical partitioning.

"Logical partitioning moves records from one partition to another and,
hence, affects the logical DB layer ...  This requires the use of
transactions to guarantee ACID properties: records are removed from one
partition and inserted into another ...  To remove records with a
specific key range from a partition, a large part of the data must be
read and updated, possibly scattered among physical pages.  Hence,
logical partitioning is more IO-heavy than physical partitioning.
Since transactions are needed, queries running in parallel may get
delayed due to locking conflicts." (Sect. 4.2)

Implementation: the mover drains the key range in batched system
transactions — read each record (scattered page I/O on the source),
delete it there, re-insert it into the receiving partition (page +
log I/O on the target), ship the record bytes — retrying batches that
lose write-write conflicts against concurrent clients.  Repeated sweeps
catch records that slipped in mid-move before ownership finalises.
"""

from __future__ import annotations

import typing

from repro.core.migration import PartitioningScheme, after_drain, register_move
from repro.core.schemes import MoveReport, split_key_at_fraction
from repro.hardware import specs
from repro.index.partition_tree import Forwarding, KeyRange
from repro.moves import MoveFailedError, check_endpoints
from repro.storage.checksum import IntegrityError
from repro.txn import (
    LockMode,
    LockTimeoutError,
    TransactionAborted,
    TxnState,
    mvcc,
)
from repro.txn.wal import LOG_RECORD_HEADER_BYTES

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode

#: Records moved per system transaction.
MOVE_BATCH_SIZE = 64

#: Give-up bound on conflict-retries of a single batch.
MAX_BATCH_RETRIES = 25

#: Bound on draining in-flight writers before an MGL-guarded move.
GUARD_LOCK_TIMEOUT = 300.0

#: A collection mark's key when the scan found every key excluded.
_SPENT = object()


def collect_batch(partition: "Partition", key_range: KeyRange,
                  exclude: set, marks: dict,
                  batch_size: int = MOVE_BATCH_SIZE) -> list:
    """The next batch of keys in the range still on the source.

    ``marks`` (one dict per sweep, by segment id) holds, per
    segment, its index, the index's ``key_inserts`` and the first
    key the last scan found outside ``exclude`` (or ``_SPENT`` if
    it found none).  While the index and the counter still match,
    the scan resumes there: ``exclude`` only grows within a sweep
    and no key has entered the index since, so every key below the
    mark is still excluded.  Removals (vacuum, a median split) only
    drop keys, and a new segment has no mark.
    """
    keys: list = []
    for target in partition.tree.find_range(key_range):
        if isinstance(target, Forwarding) or target is None:
            continue
        index = target.index
        lo = key_range.low
        mark = marks.get(target.segment_id)
        if mark is not None and mark[0] is index \
                and mark[1] == index.key_inserts:
            lo = mark[2]
            if lo is _SPENT:
                continue
        start = len(keys)
        for key, _chain in target.index_scan(lo=lo, hi=key_range.high):
            if key in exclude:
                continue
            keys.append(key)
            if len(keys) >= batch_size:
                break
        marks[target.segment_id] = (
            index, index.key_inserts,
            keys[start] if len(keys) > start else _SPENT,
        )
        if len(keys) >= batch_size:
            return keys
    return keys


def _unhost(source: "WorkerNode", segment) -> None:
    """Release an emptied segment's extent (unless it already left)."""
    if source.disk_space.holds(segment.segment_id):
        source.unhost_segment(segment)


class LogicalPartitioning(PartitioningScheme):
    """Delete-and-reinsert record movement between partitions, in
    batches cut at key quantiles (record-exact — not bound to segment
    boundaries), top-down so each split lands in the remaining range.

    ``pace_delay`` throttles the mover (seconds of idle between
    batches).  A paced move models a bulk reorganisation running in
    the background — or simply a far larger database — without
    simulating every one of its bytes; experiments that study behaviour
    *while* a move is in flight (the paper's Fig. 3) use it to pin the
    move's duration.  ``cc`` is the discipline the clients run under:
    under ``"locking"`` the mover write-protects the partition with an
    S guard for the whole move.
    """

    name = "logical"

    def __init__(self, pace_delay: float = 0.0,
                 cc: typing.Literal["mvcc", "locking"] = "mvcc"):
        if pace_delay < 0:
            raise ValueError("pace_delay must be >= 0")
        self.pace_delay = pace_delay
        self.cc = cc

    def spans(self, partition: "Partition", fraction: float,
              targets: typing.Sequence["WorkerNode"]):
        boundaries = []
        for i in range(len(targets)):
            sub = fraction * (1 - i / len(targets))
            key = split_key_at_fraction(partition, sub)
            if key is not None and (not boundaries or key != boundaries[-1]):
                boundaries.append(key)
        hull = partition.covered_range()
        bounds = boundaries + [hull.high if hull else None]
        return [
            (KeyRange(low, high), targets[i % len(targets)])
            for i, (low, high) in enumerate(zip(bounds, bounds[1:]))
            if low != high
        ][::-1]

    def ship(self, cluster: "Cluster", partition: "Partition",
             source: "WorkerNode", target: "WorkerNode",
             key_range: KeyRange, report: MoveReport):
        table = partition.table.name
        target_partition, _mode = register_move(
            cluster, partition, source, target, key_range
        )

        # Under MGL-RX the mover write-protects the whole partition for
        # the move's duration: writers queue as "a list of pending
        # changes, which have to be applied to the data after their move
        # is finished" (Sect. 3.5); readers keep flowing.  The batches
        # themselves then need no record locks: under either discipline
        # they run as MVCC system transactions, and the delete-marked
        # source versions go when ``_reclaim_source`` vacuums.
        guard = None
        if self.cc == "locking":
            guard = cluster.txns.begin(is_system=True)
            yield from cluster.txns.locks.lock_partition(
                guard.txn_id, table, partition.partition_id,
                LockMode.S, timeout=GUARD_LOCK_TIMEOUT,
            )

        try:
            # Sweep until a pass finds nothing (records inserted
            # mid-move are caught by later sweeps).
            while (yield from self._sweep(
                    cluster, partition, target_partition, source, target,
                    key_range, report)):
                pass
        finally:
            if guard is not None and guard.state is TxnState.ACTIVE:
                yield from cluster.txns.commit(guard)

        # Reclaim the source-side space: old versions, empty segments.
        yield from self._reclaim_source(cluster, partition, source,
                                        key_range)
        cluster.master.gpt.finish_move(table, target_partition.partition_id)

    # -- movement ----------------------------------------------------------

    def _sweep(self, cluster: "Cluster", partition: "Partition",
               target_partition: "Partition", source: "WorkerNode",
               target: "WorkerNode", key_range: KeyRange,
               report: MoveReport):
        """Generator: one full pass over the range; returns #moved.

        Batch size adapts AIMD-style: conflicts against concurrent
        clients halve it (down to single records, which always make
        progress), successes grow it back — the mover trades burst
        efficiency for liveness under write fire.
        """
        moved = 0
        dead: set = set()  # keys that vanished under us (client deletes)
        marks: dict = {}  # segment id -> where its next scan may start
        batch_size = MOVE_BATCH_SIZE
        stall_strikes = 0
        while True:
            batch = collect_batch(partition, key_range, dead, marks,
                                  batch_size)
            if not batch:
                return moved
            done = yield from self._move_batch(
                cluster, partition, target_partition, source, target,
                batch, dead, report,
            )
            if done is None:
                report.conflicts += 1
                batch_size = max(1, batch_size // 2)
                stall_strikes += 1
                if stall_strikes > MAX_BATCH_RETRIES and batch_size == 1:
                    raise RuntimeError(
                        f"logical move: no progress after "
                        f"{stall_strikes} conflicting attempts"
                    )
                yield cluster.env.timeout(0.02)
            else:
                moved += done
                batch_size = min(MOVE_BATCH_SIZE, batch_size * 2)
                stall_strikes = 0
                if self.pace_delay:
                    yield cluster.env.timeout(self.pace_delay)

    def _move_batch(self, cluster: "Cluster", partition: "Partition",
                    target_partition: "Partition", source: "WorkerNode",
                    target: "WorkerNode", batch: list, dead: set,
                    report: MoveReport):
        """Generator: move one batch in a system transaction; returns
        the number of records moved, or None on a conflict abort.

        A batch ships only while both ends serve, as a segment does.  A
        corrupt source row (``IntegrityError``) undoes the batch and
        fails the move with :class:`MoveFailedError`, as a dead
        endpoint does: the mover cannot repair a row, only refuse to
        copy it.

        I/O model: the mover is a *scanner*, not a point-query client —
        it reads the batch's source pages in one clustered sweep at
        near-sequential speed, ships the records, and bulk-appends them
        on the target.  (The per-record path would charge a random seek
        per record, which no real bulk mover pays.)  Contention with
        queries is still real: the sweep occupies the source disk, the
        appends occupy the target disk, the records cross the wire, and
        the MVCC/locking checks are the genuine article.
        """
        check_endpoints(source, target, MoveFailedError)
        txns = cluster.txns
        mover = txns.begin(is_system=True)
        shipped_bytes = 0
        moved = 0
        try:
            if self.cc != "locking":
                # Batches under the S guard act with its authority and
                # do not announce their own partition write intents.
                yield from source._announce_write(partition, mover)
                yield from target._announce_write(target_partition, mover)
            # Clustered read of every page the batch touches.
            yield from self._bulk_read(partition, source, batch)
            yield from source.cpu.execute(
                len(batch) * specs.CPU_INDEX_SECONDS_PER_OP
            )
            for key in batch:
                segment = partition.segment_for(key)
                if segment is None or isinstance(segment, Forwarding):
                    dead.add(key)
                    continue
                current = mvcc.delete(segment, key, mover, missing_ok=True)
                if current is None:
                    dead.add(key)
                    continue
                source.wal.append(
                    mover.txn_id, "delete",
                    (partition.table.name, key), nbytes=64,
                )
                mover.note_log(source.wal)
                version = current.copy(mover.txn_id)
                t_segment = target_partition.ensure_segment_for(key)
                target.ensure_hosted(t_segment)
                target_partition.place(target, t_segment, version,
                                       mvcc.insert, mover)
                target.wal.append(
                    mover.txn_id, "insert",
                    (partition.table.name, key, version.values),
                    nbytes=version.size_bytes + LOG_RECORD_HEADER_BYTES,
                    row_crc=version.checksum,
                )
                mover.note_log(target.wal)
                shipped_bytes += version.size_bytes
                moved += 1
            if shipped_bytes:
                yield from cluster.network.transfer(
                    source.port, target.port, shipped_bytes
                )
                # Sequential bulk append on the receiving disk.
                placed = next(iter(target.disk_space.placements()), None)
                if placed is not None:
                    yield from placed[1].write(max(shipped_bytes, 4096),
                                               sequential=False)
            yield from txns.commit(mover)
            report.records_moved += moved
            report.bytes_copied += shipped_bytes
            return moved
        except (TransactionAborted, LockTimeoutError):
            txns.abort_if_active(mover)
            return None
        except IntegrityError as exc:
            txns.abort_if_active(mover)
            raise MoveFailedError(
                f"record batch read a corrupt row on node "
                f"{source.node_id}: {exc}") from exc
        except BaseException:
            txns.abort_if_active(mover)
            raise

    @staticmethod
    def _bulk_read(partition: "Partition", source: "WorkerNode",
                   batch: list):
        """Generator: clustered read of the batch's source pages, one
        access penalty per contiguous sweep.  A segment's extent is
        looked up once, at its first key in the batch."""
        by_disk: dict[int, typing.Any] = {}
        page_bytes = 0
        disk_space = source.disk_space
        segment = disk = None
        for key in batch:
            found = partition.segment_for(key)
            if found is not segment:
                segment = found
                disk = None
                if segment is not None and not isinstance(segment, Forwarding) \
                        and disk_space.holds(segment.segment_id):
                    disk = disk_space.disk_of(segment.segment_id)
                    by_disk[id(disk)] = disk
            if disk is None:
                continue
            pages = {pno for pno, _s in (segment.index.get(key) or [])}
            page_bytes += len(pages) * segment.page_bytes
        if page_bytes == 0:
            return
        for disk in by_disk.values():
            yield from disk.read(page_bytes // max(len(by_disk), 1),
                                 sequential=False)

    # -- reclaim --------------------------------------------------------------

    @staticmethod
    def _reclaim_source(cluster: "Cluster", partition: "Partition",
                        source: "WorkerNode", key_range: KeyRange):
        """Generator: vacuum moved-out versions and drop empty segments.

        Emptied segments are detached from the tree immediately (no new
        reader can start on them) but their extents are released only
        after every in-flight transaction has drained, so a reader
        mid-page-fetch never loses the ground under its feet.
        """
        horizon = cluster.txns.oldest_active_begin_ts()
        for seg_id, seg_range, seg in list(partition.tree.entries()):
            if seg is None or isinstance(seg, Forwarding):
                continue
            if not seg_range.overlaps(key_range):
                continue
            reclaimed = mvcc.vacuum(seg, horizon)
            if reclaimed:
                yield from source.cpu.execute(
                    reclaimed * specs.CPU_INDEX_SECONDS_PER_OP
                )
            if seg.record_count == 0:
                partition.detach_segment(seg_id)
                if source.disk_space.holds(seg_id):
                    cluster.env.process(
                        after_drain(cluster, cluster.txns.oracle.current,
                                    _unhost, source, seg),
                        name=f"unhost-{seg_id}",
                    )
