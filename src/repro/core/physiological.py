"""Physiological partitioning — the paper's contribution.

Key ranges are encapsulated in segments, each carrying its own
primary-key index; a partition is only a small *top index* over its
segments.  Moving a segment therefore combines "the speed of data
movement with the ability of transferring ownership of data":

1.  the master is marked first (dual pointers in the global table),
2.  a read lock on the source partition drains writers ("updating
    transactions need to commit before the lock is granted; by
    ensuring that all changes to the partition are committed, no UNDO
    information needs to be shipped"),
3.  the segment's raw bytes stream to the target at near disk speed,
4.  the target splices the segment into its partition tree — a tiny
    top-index update — and immediately resumes query processing,
5.  a forwarding pointer on the source redirects in-flight queries
    until every pre-move transaction has drained, then it is retired,
6.  the move acts as a checkpoint: the old log file stays on the
    source, new updates log on the target.  (Sect. 4.3)
"""

from __future__ import annotations

import typing

from repro.core.migration import transfer_segment_storage
from repro.core.schemes import (
    MoveReport,
    PartitioningScheme,
    ordered_segments,
    segment_chunks,
)
from repro.hardware import specs
from repro.index.global_table import PartitionLocation
from repro.index.partition_tree import KeyRange
from repro.moves import (
    ABORTED,
    COPY,
    DONE,
    HANDOVER,
    MoveFailedError,
    RangeMoveEntry,
    SPLIT,
)
from repro.txn import LockMode
from repro.txn.locks import LockTimeoutError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode


def rollback_range_registration(cluster: "Cluster",
                                entry: RangeMoveEntry) -> None:
    """Undo a range move's master-side registration when **no** segment
    has switched yet: the dual pointer disappears and the source is the
    sole owner again, exactly as before the move.  Shared by the
    scheme's own failure path and failover's journal replay.
    """
    gpt = cluster.master.gpt
    target = cluster.worker(entry.target_node)
    if entry.mode == HANDOVER:
        # The registration replaced the source's entry outright;
        # restore it (the epoch moves forward, never back, so any
        # stale mover is fenced).
        registered = gpt.range_of(entry.table, entry.target_partition_id)
        gpt.unregister(entry.table, entry.target_partition_id)
        gpt.register(
            entry.table, registered,
            PartitionLocation(entry.source_partition_id, entry.source_node,
                              epoch=(entry.epoch or 0) + 1),
        )
    else:
        gpt.abort_move(entry.table, entry.target_partition_id)
        gpt.unsplit(entry.table, entry.source_partition_id,
                    entry.target_partition_id)
    if entry.target_partition_id in target.partitions:
        target.remove_partition(entry.target_partition_id)
    release_source(cluster, entry)


def release_source(cluster: "Cluster", entry: RangeMoveEntry) -> None:
    """The range move is closed: its source partition may mint segments
    inside the range again (see ``Partition.moving_out``)."""
    partition = cluster.worker(entry.source_node).partitions.get(
        entry.source_partition_id)
    if partition is not None:
        partition.moving_out.pop(entry.target_partition_id, None)


#: How often the drain watcher re-checks for lingering old transactions.
DRAIN_POLL_SECONDS = 1.0

#: Generous bound on draining one partition's writers.
WRITER_DRAIN_TIMEOUT = 300.0


class PhysiologicalPartitioning(PartitioningScheme):
    """Ship whole segments AND transfer their ownership."""

    name = "physiological"
    transfers_ownership = True

    def move_range(self, cluster: "Cluster", partition: "Partition",
                   source: "WorkerNode", target: "WorkerNode",
                   key_range: KeyRange):
        """Generator: move the segments of ``key_range`` to ``target``.

        ``key_range`` must be aligned to segment boundaries (the low
        bound equals some attached segment's low bound) — use
        :meth:`migrate_fraction` for automatic alignment.
        """
        env = cluster.env
        table = partition.table.name
        report = MoveReport(
            scheme=self.name, table=table,
            source_node=source.node_id, target_node=target.node_id,
            started_at=env.now,
        )
        if not any(
            seg_range.overlaps(key_range)
            for seg_range, _seg in ordered_segments(partition)
        ):
            report.finished_at = env.now
            return report

        # Step 1 — the master is updated first, with dual pointers; the
        # registration style (handover/split) is journaled because a
        # rollback must undo exactly what was registered.
        target_partition, mode = self._register_move(
            cluster, partition, source, target, key_range
        )
        journal = cluster.moves.journal
        range_entry = journal.open_range_move(
            table, partition.partition_id, target_partition.partition_id,
            source.node_id, target.node_id, mode,
            epoch=cluster.master.gpt.epoch_of(
                table, target_partition.partition_id
            ),
        )
        journal.advance_range(range_entry, COPY)

        yield from self._drive_range(
            cluster, partition, target_partition, source, target,
            key_range, range_entry, report,
        )
        report.finished_at = env.now
        return report

    def resume_range_move(self, cluster: "Cluster", entry: RangeMoveEntry):
        """Generator: re-drive a suspended range move from its journal
        entry (coordinator restarted, or a transient fault aborted the
        previous drive after some segments had switched).

        Already-moved segments are skipped naturally — they sit behind
        forwarding pointers in the source tree, which the segment picker
        ignores — so only the remainder ships.  Returns the resumed
        :class:`MoveReport`, or None when the partitions are gone.
        """
        source = cluster.worker(entry.source_node)
        target = cluster.worker(entry.target_node)
        partition = source.partitions.get(entry.source_partition_id)
        target_partition = target.partitions.get(entry.target_partition_id)
        if partition is None or target_partition is None:
            return None
        key_range = cluster.master.gpt.range_of(
            entry.table, entry.target_partition_id
        )
        report = MoveReport(
            scheme=self.name, table=entry.table,
            source_node=entry.source_node, target_node=entry.target_node,
            started_at=cluster.env.now,
        )
        yield from self._drive_range(
            cluster, partition, target_partition, source, target,
            key_range, entry, report,
        )
        report.finished_at = cluster.env.now
        return report

    def _drive_range(self, cluster: "Cluster", partition: "Partition",
                     target_partition: "Partition", source: "WorkerNode",
                     target: "WorkerNode", key_range: KeyRange,
                     range_entry: RangeMoveEntry, report: MoveReport):
        """Generator: steps 2..6 — per segment: drain writers, stream,
        splice — then close the move (finish_move + journal DONE).

        A segment transfer that fails despite the mover's retries
        degrades the range move instead of crashing the caller's loop:
        with nothing switched yet the registration is rolled back
        outright; with segments already serving on the target the move
        is *suspended* (journal entry stays open, dual pointers stay up,
        both halves keep serving) for :meth:`resume_range_move`.  Either
        way :class:`~repro.moves.MoveFailedError` propagates with the
        partial ``report`` attached.

        Segments are picked from the LIVE tree each iteration because
        concurrent inserts may split segments while earlier ones are
        being copied; the range is re-read under the partition lock,
        where it is stable.
        """
        env = cluster.env
        txns = cluster.txns
        journal = cluster.moves.journal
        table = partition.table.name
        fence = (table, target_partition.partition_id)
        moved_ids: set[int] = set()
        while True:
            if not range_entry.is_open:
                # Failover resolved the whole range move under us.
                exc = MoveFailedError(
                    f"range move {range_entry.move_id} was resolved by "
                    f"failover: {range_entry.detail}"
                )
                self._collect_range_stats(journal, range_entry, report)
                report.finished_at = env.now
                exc.report = report
                raise exc
            segment = self._next_segment(partition, key_range, moved_ids)
            if segment is None:
                break
            mover = txns.begin(is_system=True)
            try:
                yield from txns.locks.lock_partition(
                    mover.txn_id, table, partition.partition_id,
                    LockMode.S, timeout=WRITER_DRAIN_TIMEOUT,
                )
                seg_range = partition.tree.range_of(segment.segment_id)
                if source.disk_space.holds(segment.segment_id):
                    nbytes = yield from transfer_segment_storage(
                        cluster, segment, source, target,
                        fence=fence, range_entry=range_entry,
                    )
                else:
                    nbytes = 0  # empty segment: pure metadata handover
                # Source: leave a forwarding pointer for in-flight work.
                partition.detach_segment(segment.segment_id)
                if nbytes:
                    partition.tree.attach(segment.segment_id, seg_range, None)
                    partition.tree.forward(segment.segment_id, target.node_id)
                source.buffer.discard_unpinned(
                    p.page_id for p in segment.pages)
                # Target: splice into the top index — the cheap update
                # that makes this scheme fast.
                yield from target.cpu.execute(specs.CPU_INDEX_SECONDS_PER_OP)
                target_partition.attach_segment(segment, seg_range)
                # The move acts as a checkpoint on the source log.
                source.wal.checkpoint(
                    payload=("segment-moved", segment.segment_id, target.node_id)
                )
                yield from txns.commit(mover)
            except (MoveFailedError, LockTimeoutError) as exc:
                txns.abort_if_active(mover)
                if not isinstance(exc, MoveFailedError):
                    # Writer drain stalled past its generous bound —
                    # degrade like any other failed segment transfer
                    # instead of crashing the caller's policy loop.
                    exc = MoveFailedError(f"writer drain failed: {exc}")
                self._degrade(cluster, range_entry, report, exc)
                raise exc
            except BaseException:
                txns.abort_if_active(mover)
                raise
            journal.note_segment_switched(range_entry)
            moved_ids.add(segment.segment_id)
            report.segments_moved += 1
            report.bytes_copied += nbytes
            report.records_moved += segment.record_count
            # Step 5 — retire the forwarding pointer once transactions
            # that might still route via the source have drained.
            if nbytes:
                env.process(
                    self._retire_forwarding(
                        cluster, partition, segment.segment_id,
                        txns.oracle.current,
                    ),
                    name=f"retire-fwd-{segment.segment_id}",
                )

        # Step 1' — repartitioning done: delete the old pointer.
        if not range_entry.is_open:
            exc = MoveFailedError(
                f"range move {range_entry.move_id} was resolved by "
                f"failover: {range_entry.detail}"
            )
            self._collect_range_stats(journal, range_entry, report)
            report.finished_at = env.now
            exc.report = report
            raise exc
        cluster.master.gpt.finish_move(table, target_partition.partition_id)
        target_partition.accepts_uncovered = True
        release_source(cluster, range_entry)
        self._collect_range_stats(journal, range_entry, report)
        journal.advance_range(range_entry, DONE)

    def _degrade(self, cluster: "Cluster", range_entry: RangeMoveEntry,
                 report: MoveReport, exc: MoveFailedError) -> None:
        """A segment transfer gave up: roll the range move back (nothing
        switched) or suspend it for a later resume (partially switched).
        """
        journal = cluster.moves.journal
        self._collect_range_stats(journal, range_entry, report)
        if range_entry.is_open:
            if range_entry.segments_switched == 0:
                rollback_range_registration(cluster, range_entry)
                journal.advance_range(range_entry, ABORTED, str(exc))
            else:
                report.suspended = True
                range_entry.detail = f"suspended: {exc}"
        report.finished_at = cluster.env.now
        exc.report = report

    @staticmethod
    def _collect_range_stats(journal, range_entry: RangeMoveEntry,
                             report: MoveReport) -> None:
        """Fold the wire-level accounting of the range's segment moves
        into the report (idempotent: totals, not increments) — the
        closed ones' totals the range entry keeps, plus its open ones."""
        report.retries = range_entry.retries
        report.resumes = range_entry.resumes
        report.bytes_reshipped = range_entry.bytes_reshipped
        for seg_entry in journal.open_segment_moves():
            if seg_entry.range_move_id == range_entry.move_id:
                report.retries += seg_entry.retries
                report.resumes += seg_entry.resumes
                report.bytes_reshipped += seg_entry.bytes_reshipped

    @staticmethod
    def _next_segment(partition: "Partition", key_range: KeyRange,
                      moved_ids: set[int]):
        """The lowest-keyed live segment in the range not yet moved."""
        for seg_range, segment in ordered_segments(partition):
            if segment.segment_id in moved_ids:
                continue
            if seg_range.overlaps(key_range):
                return segment
        return None

    @staticmethod
    def _register_move(cluster: "Cluster", partition: "Partition",
                       source: "WorkerNode", target: "WorkerNode",
                       key_range: KeyRange) -> tuple["Partition", str]:
        """Create the receiving partition and set up the master's dual
        pointers for the moved range.  Returns the partition and the
        registration mode (journaled so a rollback knows what to undo).
        """
        table = partition.table.name
        gpt = cluster.master.gpt
        registered = gpt.range_of(table, partition.partition_id)
        target_partition = cluster.catalog.new_partition(
            partition.table, target.node_id
        )
        target_partition.bounds = key_range
        # Until the move closes, the target serves only segments that
        # already switched — it must not invent segments for the rest
        # of the range while the source is merely unreachable.
        target_partition.accepts_uncovered = False
        partition.moving_out[target_partition.partition_id] = key_range
        target.add_partition(target_partition)
        if key_range.low is None or key_range.low == registered.low:
            # Whole-partition handover: replace the entry outright.
            gpt.unregister(table, partition.partition_id)
            gpt.register(
                table, registered,
                PartitionLocation(
                    target_partition.partition_id, source.node_id,
                    moving_to_node_id=target.node_id,
                ),
            )
            return target_partition, HANDOVER
        gpt.split(
            table, partition.partition_id, key_range.low,
            target_partition.partition_id, source.node_id,
        )
        gpt.begin_move(table, target_partition.partition_id, target.node_id)
        return target_partition, SPLIT

    @staticmethod
    def _retire_forwarding(cluster: "Cluster", partition: "Partition",
                           segment_id: int, move_ts: int):
        """Process: drop the source-side pointer after old txns drain."""
        txns = cluster.txns
        while txns.oldest_active_begin_ts() <= move_ts:
            yield cluster.env.timeout(DRAIN_POLL_SECONDS)
        try:
            partition.tree.retire_forwarding(segment_id)
        except KeyError:
            pass  # already retired (idempotent under races)

    def migrate_fraction(self, cluster: "Cluster", table: str,
                         source: "WorkerNode",
                         targets: typing.Sequence["WorkerNode"],
                         fraction: float):
        """Generator: segment-aligned fraction move.

        Chunks are processed from the top of the key space downwards so
        each global-table split lands inside the remaining source range.
        """
        if not targets:
            raise ValueError("need at least one target node")
        reports: list[MoveReport] = []
        for partition in list(source.partitions_for_table(table)):
            chunks = segment_chunks(partition, fraction, len(targets))
            assigned = list(zip(chunks, targets))
            for chunk, target in reversed(assigned):
                low = chunk[0][0].low
                high = chunk[-1][0].high
                try:
                    report = yield from self.move_range(
                        cluster, partition, source, target,
                        KeyRange(low, high),
                    )
                except MoveFailedError as exc:
                    # Completed chunks stay moved; the failed chunk was
                    # rolled back or suspended by move_range.  Hand the
                    # full picture to the caller for degradation.
                    if exc.report is not None:
                        reports.append(exc.report)
                    exc.reports = reports
                    raise
                reports.append(report)
        return reports
