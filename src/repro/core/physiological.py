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

import functools
import typing

from repro.core.migration import (
    PartitioningScheme,
    after_drain,
    register_move,
    release_source,
    rollback_range_registration,
    ship_segment,
)
from repro.core.schemes import MoveReport, ordered_segments, segment_spans
from repro.hardware import specs
from repro.index.partition_tree import KeyRange
from repro.moves import ABORTED, COPY, DONE, MoveFailedError, RangeMoveEntry
from repro.txn import LockMode
from repro.txn.locks import LockTimeoutError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode

#: Generous bound on draining one partition's writers.
WRITER_DRAIN_TIMEOUT = 300.0


def collect_range_stats(journal, range_entry: RangeMoveEntry,
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


def _retire_forwarding(partition: "Partition", segment_id: int) -> None:
    """Drop the source-side pointer (idempotent under races)."""
    try:
        partition.tree.retire_forwarding(segment_id)
    except KeyError:
        pass


class PhysiologicalPartitioning(PartitioningScheme):
    """Ship whole segments AND transfer their ownership, top-down so
    each global-table split lands inside the remaining source range."""

    name = "physiological"

    def spans(self, partition: "Partition", fraction: float,
              targets: typing.Sequence["WorkerNode"]):
        return segment_spans(partition, fraction, targets)[::-1]

    def ship(self, cluster: "Cluster", partition: "Partition",
             source: "WorkerNode", target: "WorkerNode",
             key_range: KeyRange, report: MoveReport):
        """Generator: move the segments of ``key_range`` to ``target``.

        ``key_range`` must be aligned to segment boundaries (the low
        bound equals some attached segment's low bound) — the spans of
        :meth:`migrate_fraction` are.
        """
        if not any(seg_range.overlaps(key_range)
                   for seg_range, _seg in ordered_segments(partition)):
            return
        # Step 1 — the master is updated first, with dual pointers; the
        # registration style (handover/split) is journaled because a
        # rollback must undo exactly what was registered.
        target_partition, mode = register_move(
            cluster, partition, source, target, key_range
        )
        # Until the move closes, the target serves only segments that
        # already switched — it must not invent segments for the rest
        # of the range while the source is merely unreachable.
        target_partition.accepts_uncovered = False
        partition.moving_out[target_partition.partition_id] = key_range
        journal = cluster.moves.journal
        range_entry = journal.open_range_move(
            partition.table.name, partition.partition_id,
            target_partition.partition_id, source.node_id, target.node_id,
            mode, epoch=cluster.master.gpt.epoch_of(
                partition.table.name, target_partition.partition_id
            ),
        )
        journal.advance_range(range_entry, COPY)
        yield from self._drive_range(
            cluster, partition, target_partition, source, target,
            key_range, range_entry, report,
        )

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
        return (yield from self._reported(
            cluster, entry.table, entry.source_node, entry.target_node,
            functools.partial(self._drive_range, cluster, partition,
                              target_partition, source, target, key_range,
                              entry),
        ))

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
                collect_range_stats(journal, range_entry, report)
                raise MoveFailedError(
                    f"range move {range_entry.move_id} was resolved by "
                    f"failover: {range_entry.detail}"
                )
            # The lowest-keyed live segment in the range not yet moved.
            segment = next((
                seg for seg_range, seg in ordered_segments(partition)
                if seg.segment_id not in moved_ids
                and seg_range.overlaps(key_range)
            ), None)
            if segment is None:
                break
            mover = txns.begin(is_system=True)
            try:
                yield from txns.locks.lock_partition(
                    mover.txn_id, table, partition.partition_id,
                    LockMode.S, timeout=WRITER_DRAIN_TIMEOUT,
                )
                seg_range = partition.tree.range_of(segment.segment_id)
                # An empty segment ships nothing: a pure metadata handover.
                nbytes = yield from ship_segment(
                    cluster, segment, source, target, report,
                    fence=fence, range_entry=range_entry,
                )
                # Source: leave a forwarding pointer for in-flight work.
                partition.detach_segment(segment.segment_id)
                if nbytes:
                    partition.tree.attach(segment.segment_id, seg_range, None)
                    partition.tree.forward(segment.segment_id, target.node_id)
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
                # Roll the range move back (nothing switched) or
                # suspend it for a later resume (partially switched).
                collect_range_stats(journal, range_entry, report)
                if range_entry.is_open:
                    if range_entry.segments_switched == 0:
                        rollback_range_registration(cluster, range_entry)
                        journal.advance_range(range_entry, ABORTED, str(exc))
                    else:
                        report.suspended = True
                        range_entry.detail = f"suspended: {exc}"
                raise exc
            except BaseException:
                txns.abort_if_active(mover)
                raise
            journal.note_segment_switched(range_entry)
            moved_ids.add(segment.segment_id)
            # Step 5 — retire the forwarding pointer once transactions
            # that might still route via the source have drained.
            if nbytes:
                env.process(
                    after_drain(cluster, txns.oracle.current,
                                _retire_forwarding, partition,
                                segment.segment_id),
                    name=f"retire-fwd-{segment.segment_id}",
                )

        # Step 1' — repartitioning done: delete the old pointer.
        cluster.master.gpt.finish_move(table, target_partition.partition_id)
        target_partition.accepts_uncovered = True
        release_source(cluster, range_entry)
        collect_range_stats(journal, range_entry, report)
        journal.advance_range(range_entry, DONE)
