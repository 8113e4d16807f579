"""The one repartitioning pipeline of the three schemes (Sect. 4):
choose spans -> register dual pointers -> ship units -> switch -> drain
-> reclaim / close.  Physical, logical and physiological partitioning
differ only in the unit that moves — a segment's pages, records, or a
segment with its ownership: a scheme supplies its cut (``spans``) and
its ship step (``ship``), and the stages they share are below.  The
chunked segment copy itself (so that concurrent query I/O interleaves
on the disks and the wire, the contention of Fig. 6/7) lives in
``moves/mover.py``.
"""

from __future__ import annotations

import abc
import functools
import typing

from repro.core.schemes import MoveReport
from repro.index.global_table import PartitionLocation
from repro.index.partition_tree import KeyRange
from repro.moves import HANDOVER, SPLIT, MoveFailedError, RangeMoveEntry
from repro.storage.segment import Segment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode

#: How often a drain watcher re-checks for lingering old transactions.
DRAIN_POLL_SECONDS = 1.0


class PartitioningScheme(abc.ABC):
    """How a key range moves between nodes."""

    #: Short identifier used in reports and figures.
    name: str = "abstract"

    @abc.abstractmethod
    def spans(self, partition: "Partition", fraction: float,
              targets: typing.Sequence["WorkerNode"]
              ) -> list[tuple[KeyRange, "WorkerNode"]]:
        """The cut: the top ``fraction`` of ``partition`` as key ranges,
        each with its target, in the order they move."""

    @abc.abstractmethod
    def ship(self, cluster: "Cluster", partition: "Partition",
             source: "WorkerNode", target: "WorkerNode",
             key_range: KeyRange, report: MoveReport):
        """Generator: move the range's units, counting them into
        ``report``."""

    def move_range(self, cluster: "Cluster", partition: "Partition",
                   source: "WorkerNode", target: "WorkerNode",
                   key_range: KeyRange):
        """Generator: move ``key_range`` of ``partition`` from
        ``source`` to ``target``; returns a :class:`MoveReport`.

        A move is background work on behalf of no client query, so it
        has no Fig. 7 accumulator to charge.
        """
        return (yield from self._reported(
            cluster, partition.table.name, source.node_id, target.node_id,
            functools.partial(self.ship, cluster, partition, source, target,
                              key_range),
        ))

    def _reported(self, cluster: "Cluster", table: str, source_node: int,
                  target_node: int, steps):
        """Generator: run ``steps`` on a fresh report; returns it, or
        raises it with a :class:`MoveFailedError`."""
        report = MoveReport(self.name, table, source_node, target_node,
                            started_at=cluster.env.now)
        try:
            yield from steps(report)
        except MoveFailedError as exc:
            exc.report = report
            raise
        finally:
            report.finished_at = cluster.env.now
        return report

    def migrate_fraction(self, cluster: "Cluster", table: str,
                         source: "WorkerNode",
                         targets: typing.Sequence["WorkerNode"],
                         fraction: float):
        """Generator: move the top ``fraction`` of each of ``source``'s
        partitions of ``table``, split across ``targets``.

        This is the Fig. 6 driver ("migrate 50% of the records to two
        additional nodes").  Returns the list of move reports; a
        :class:`MoveFailedError` carries them in ``reports`` (completed
        spans stay moved), the failed span's partial report last.
        """
        if not targets:
            raise ValueError("need at least one target node")
        reports: list[MoveReport] = []
        for partition in list(source.partitions_for_table(table)):
            for key_range, target in self.spans(partition, fraction, targets):
                try:
                    report = yield from self.move_range(
                        cluster, partition, source, target, key_range,
                    )
                except MoveFailedError as exc:
                    exc.reports = reports + [exc.report]
                    raise
                reports.append(report)
        return reports


def register_move(cluster: "Cluster", partition: "Partition",
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


def ship_segment(cluster: "Cluster", segment: Segment,
                 source: "WorkerNode", target: "WorkerNode",
                 report: MoveReport, fence: tuple[str, int] | None = None,
                 range_entry=None):
    """Generator: ship a segment unit — move its physical extent to
    ``target`` (none if the source no longer holds it) and count it
    into ``report``; returns the bytes copied.

    Flushes dirty pages, then hands the transfer to the cluster's
    :class:`~repro.moves.MoveManager`, which runs the journaled
    PREPARE -> COPY -> SWITCH -> DONE state machine: chunk-level
    checkpoints (an interrupted copy resumes, not restarts), bounded
    retry with backoff on transient wire faults, a per-move deadline,
    and — when ``fence`` names a ``(table, partition_id)`` — an epoch
    check at the switch.  On failure the move is rolled back (target
    extent evicted, journal entry closed) and
    :class:`~repro.moves.MoveFailedError` raised; the directory still
    points at the source.  Logical ownership is NOT touched — that is
    each scheme's business.
    """
    nbytes = 0
    if source.disk_space.holds(segment.segment_id):
        # The copied extent must be current: its dirty pages first.
        yield from source.buffer.write_back(p.page_id for p in segment.pages)
        entry = yield from cluster.moves.transfer_segment(
            segment, source, target, fence=fence, range_entry=range_entry,
        )
        nbytes = entry.bytes_total
    # The physical home changed: the source's cache must not mask the
    # new remote-access cost for cold data (hot pages get re-cached on
    # demand).
    source.buffer.discard_unpinned(p.page_id for p in segment.pages)
    report.segments_moved += 1
    report.bytes_copied += nbytes
    report.records_moved += segment.record_count
    return nbytes


def after_drain(cluster: "Cluster", ts: int, action, *args):
    """Process: ``action(*args)`` once every transaction that began at
    or before ``ts`` (and might still reach the old home) finished."""
    while cluster.txns.oldest_active_begin_ts() <= ts:
        yield cluster.env.timeout(DRAIN_POLL_SECONDS)
    action(*args)
