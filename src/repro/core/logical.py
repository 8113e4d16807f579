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

from repro.core.schemes import MoveReport, PartitioningScheme, split_key_at_fraction
from repro.hardware import specs
from repro.index.global_table import PartitionLocation
from repro.index.partition_tree import Forwarding, KeyRange
from repro.storage.segment import SegmentFullError
from repro.txn import LockTimeoutError, TransactionAborted, TxnState

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


class LogicalPartitioning(PartitioningScheme):
    """Delete-and-reinsert record movement between partitions.

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
    transfers_ownership = True

    def __init__(self, pace_delay: float = 0.0,
                 cc: typing.Literal["mvcc", "locking"] = "mvcc"):
        if pace_delay < 0:
            raise ValueError("pace_delay must be >= 0")
        self.pace_delay = pace_delay
        self.cc = cc

    def move_range(self, cluster: "Cluster", partition: "Partition",
                   source: "WorkerNode", target: "WorkerNode",
                   key_range: KeyRange):
        env = cluster.env
        table = partition.table.name
        report = MoveReport(
            scheme=self.name, table=table,
            source_node=source.node_id, target_node=target.node_id,
            started_at=env.now,
        )

        target_partition = self._register_move(
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
            from repro.txn import LockMode

            guard = cluster.txns.begin(is_system=True)
            yield from cluster.txns.locks.lock_partition(
                guard.txn_id, table, partition.partition_id,
                LockMode.S, timeout=GUARD_LOCK_TIMEOUT,
            )

        try:
            # Sweep until a pass finds nothing (records inserted
            # mid-move are caught by later sweeps).
            while True:
                moved_this_sweep = yield from self._sweep(
                    cluster, partition, target_partition, source, target,
                    key_range, report,
                )
                if moved_this_sweep == 0:
                    break
        finally:
            if guard is not None and guard.state is TxnState.ACTIVE:
                yield from cluster.txns.commit(guard)

        # Reclaim the source-side space: old versions, empty segments.
        yield from self._reclaim_source(cluster, partition, source,
                                        key_range)
        cluster.master.gpt.finish_move(table, target_partition.partition_id)
        report.finished_at = env.now
        return report

    # -- movement ----------------------------------------------------------

    @staticmethod
    def _collect_batch(partition: "Partition", key_range: KeyRange,
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
            batch = self._collect_batch(partition, key_range, dead, marks,
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

        I/O model: the mover is a *scanner*, not a point-query client —
        it reads the batch's source pages in one clustered sweep at
        near-sequential speed, ships the records, and bulk-appends them
        on the target.  (The per-record path would charge a random seek
        per record, which no real bulk mover pays.)  Contention with
        queries is still real: the sweep occupies the source disk, the
        appends occupy the target disk, the records cross the wire, and
        the MVCC/locking checks are the genuine article.
        """
        from repro.hardware import specs
        from repro.storage.record import RecordVersion
        from repro.txn import mvcc

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
            inserted_pages: set[int] = set()
            for key in batch:
                segment = partition.segment_for(key)
                if segment is None or isinstance(segment, Forwarding):
                    dead.add(key)
                    continue
                current = mvcc.visible_version(segment, key, mover)
                if current is None:
                    dead.add(key)
                    continue
                row = current.values
                mvcc.delete(segment, key, mover)
                source.wal.append(
                    mover.txn_id, "delete",
                    (partition.table.name, key), nbytes=64,
                )
                mover.note_log(source.wal)
                # ``current`` was just returned verified: the row keeps
                # its CRC on the target, as a moved segment would.
                version = RecordVersion.make(
                    target_partition.schema, row, mover.txn_id,
                    checksum=current.checksum,
                )
                t_segment = target_partition.ensure_segment_for(key)
                target.ensure_hosted(t_segment)
                try:
                    page_no, _slot = mvcc.insert(t_segment, version, mover)
                except SegmentFullError:
                    fresh = target_partition.split_full_segment(t_segment, key)
                    target.ensure_hosted(fresh)
                    t_segment = target_partition.segment_for(key)
                    page_no, _slot = mvcc.insert(t_segment, version, mover)
                inserted_pages.add(t_segment.pages[page_no].page_id)
                target.wal.append(
                    mover.txn_id, "insert",
                    (partition.table.name, key, row),
                    nbytes=version.size_bytes + 48,
                    row_crc=version.checksum,
                )
                mover.note_log(target.wal)
                shipped_bytes += version.size_bytes
                moved += 1
            if shipped_bytes:
                yield from cluster.network.transfer(
                    source.port, target.port, shipped_bytes
                )
                # Bulk append on the receiving disk.
                yield from self._bulk_write(target, target_partition,
                                            inserted_pages, shipped_bytes)
            yield from txns.commit(mover)
            report.records_moved += moved
            report.bytes_copied += shipped_bytes
            return moved
        except (TransactionAborted, LockTimeoutError):
            txns.abort_if_active(mover)
            return None
        except BaseException:
            txns.abort_if_active(mover)
            raise

    @staticmethod
    def _bulk_read(partition: "Partition", source: "WorkerNode",
                   batch: list):
        """Generator: clustered read of the batch's source pages, one
        access penalty per contiguous sweep."""
        by_disk: dict[int, tuple] = {}
        page_bytes = 0
        for key in batch:
            segment = partition.segment_for(key)
            if segment is None or isinstance(segment, Forwarding):
                continue
            if not source.disk_space.holds(segment.segment_id):
                continue
            pages = {pno for pno, _s in (segment.index.get(key) or [])}
            disk = source.disk_space.disk_of(segment.segment_id)
            for _ in pages:
                page_bytes += segment.page_bytes
            by_disk[id(disk)] = (disk,)
        if page_bytes == 0:
            return
        for (disk,) in by_disk.values():
            yield from disk.read(page_bytes // max(len(by_disk), 1),
                                 sequential=False)

    @staticmethod
    def _bulk_write(target: "WorkerNode", target_partition: "Partition",
                    inserted_pages: set, nbytes: int):
        """Generator: sequential append of the received records."""
        disks = {
            id(d): d for _sid, d in target.disk_space.placements()
        }
        if not disks:
            return
        disk = next(iter(disks.values()))
        yield from disk.write(max(nbytes, 4096), sequential=False)

    # -- bookkeeping ----------------------------------------------------------

    @staticmethod
    def _register_move(cluster: "Cluster", partition: "Partition",
                       source: "WorkerNode", target: "WorkerNode",
                       key_range: KeyRange) -> "Partition":
        table = partition.table.name
        gpt = cluster.master.gpt
        registered = gpt.range_of(table, partition.partition_id)
        target_partition = cluster.catalog.new_partition(
            partition.table, target.node_id
        )
        target_partition.bounds = key_range
        target.add_partition(target_partition)
        if key_range.low is None or key_range.low == registered.low:
            gpt.unregister(table, partition.partition_id)
            gpt.register(
                table, registered,
                PartitionLocation(
                    target_partition.partition_id, source.node_id,
                    moving_to_node_id=target.node_id,
                ),
            )
        else:
            gpt.split(
                table, partition.partition_id, key_range.low,
                target_partition.partition_id, source.node_id,
            )
            gpt.begin_move(table, target_partition.partition_id, target.node_id)
        return target_partition

    @staticmethod
    def _reclaim_source(cluster: "Cluster", partition: "Partition",
                        source: "WorkerNode", key_range: KeyRange):
        """Generator: vacuum moved-out versions and drop empty segments.

        Emptied segments are detached from the tree immediately (no new
        reader can start on them) but their extents are released only
        after every in-flight transaction has drained, so a reader
        mid-page-fetch never loses the ground under its feet.
        """
        from repro.txn import mvcc

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
                        LogicalPartitioning._deferred_unhost(
                            cluster, source, seg,
                            cluster.txns.oracle.current,
                        ),
                        name=f"unhost-{seg_id}",
                    )

    @staticmethod
    def _deferred_unhost(cluster: "Cluster", source: "WorkerNode",
                         segment, drop_ts: int):
        """Process: release an emptied segment's extent once every
        transaction that might still touch it has finished."""
        while cluster.txns.oldest_active_begin_ts() <= drop_ts:
            yield cluster.env.timeout(1.0)
        if source.disk_space.holds(segment.segment_id):
            source.unhost_segment(segment)

    def migrate_fraction(self, cluster: "Cluster", table: str,
                         source: "WorkerNode",
                         targets: typing.Sequence["WorkerNode"],
                         fraction: float):
        """Generator: quantile-split fraction move (record-exact —
        logical partitioning is not bound to segment boundaries)."""
        if not targets:
            raise ValueError("need at least one target node")
        reports: list[MoveReport] = []
        for partition in list(source.partitions_for_table(table)):
            boundaries = []
            for i in range(len(targets)):
                sub = fraction * (1 - i / len(targets))
                key = split_key_at_fraction(partition, sub)
                if key is not None and (not boundaries or key != boundaries[-1]):
                    boundaries.append(key)
            if not boundaries:
                continue
            hull = partition.covered_range()
            top = hull.high if hull else None
            # Process top-down so each split lands in the remaining range.
            spans = []
            for i, low in enumerate(boundaries):
                high = boundaries[i + 1] if i + 1 < len(boundaries) else top
                spans.append((low, high, targets[i % len(targets)]))
            for low, high, target in reversed(spans):
                if low == high:
                    continue
                report = yield from self.move_range(
                    cluster, partition, source, target,
                    KeyRange(low, high),
                )
                reports.append(report)
        return reports
