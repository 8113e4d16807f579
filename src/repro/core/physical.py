"""Physical partitioning.

"Physical partitioning operates at the data access layer and does not
change logical access paths ...  To repartition, whole segments are
moved among nodes, without altering the data stored inside."
(Sect. 4.1)

Segments' *storage* moves to the target node's disks, but the source
node keeps logical control: its partition tree still points at the
segments, its buffer pool still caches their pages, and every future
page miss pays a network round trip to the hosting node — the access
pattern whose cost the paper's Fig. 6 exposes ("the logical control of
the data is stuck at the original node").

"Transactions are not needed ...; a lightweight latching/
synchronization mechanism, locking segments on the move for a short
time, is sufficient."
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
from repro.index.partition_tree import KeyRange

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode


class PhysicalPartitioning(PartitioningScheme):
    """Move segment extents; ownership stays put."""

    name = "physical"
    transfers_ownership = False

    def move_range(self, cluster: "Cluster", partition: "Partition",
                   source: "WorkerNode", target: "WorkerNode",
                   key_range: KeyRange):
        report = MoveReport(
            scheme=self.name, table=partition.table.name,
            source_node=source.node_id, target_node=target.node_id,
            started_at=cluster.env.now,
        )
        for seg_range, segment in ordered_segments(partition):
            if not seg_range.overlaps(key_range):
                continue
            if not source.disk_space.holds(segment.segment_id):
                continue  # extent already lives elsewhere
            # Lightweight latch: queries keep running; only the extent
            # itself is briefly locked by the copy machinery.
            nbytes = yield from transfer_segment_storage(
                cluster, segment, source, target
            )
            # Drop cached pages on the owner: the physical home changed
            # and the cache must not mask the new remote-access cost
            # for cold data (hot pages get re-cached on demand).
            source.buffer.discard_unpinned(p.page_id for p in segment.pages)
            report.segments_moved += 1
            report.bytes_copied += nbytes
            report.records_moved += segment.record_count
        report.finished_at = cluster.env.now
        return report

    def migrate_fraction(self, cluster: "Cluster", table: str,
                         source: "WorkerNode",
                         targets: typing.Sequence["WorkerNode"],
                         fraction: float):
        """Generator: ship the top-``fraction`` segments' storage to the
        targets; no catalog change whatsoever (the logical layer stays
        oblivious)."""
        if not targets:
            raise ValueError("need at least one target node")
        reports: list[MoveReport] = []
        for partition in list(source.partitions_for_table(table)):
            chunks = segment_chunks(partition, fraction, len(targets))
            for chunk, target in zip(chunks, targets):
                low = chunk[0][0].low
                high = chunk[-1][0].high
                report = yield from self.move_range(
                    cluster, partition, source, target,
                    KeyRange(low, high),
                )
                reports.append(report)
        return reports
