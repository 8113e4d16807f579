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

from repro.core.migration import PartitioningScheme, ship_segment
from repro.core.schemes import MoveReport, ordered_segments, segment_spans
from repro.index.partition_tree import KeyRange

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode


class PhysicalPartitioning(PartitioningScheme):
    """Move segment extents (ascending); ownership stays put, so there
    is nothing to register, switch or drain."""

    name = "physical"

    spans = staticmethod(segment_spans)

    def ship(self, cluster: "Cluster", partition: "Partition",
             source: "WorkerNode", target: "WorkerNode",
             key_range: KeyRange, report: MoveReport):
        for seg_range, segment in ordered_segments(partition):
            # Lightweight latch: queries keep running; only the extent
            # itself is briefly locked by the copy machinery.
            if seg_range.overlaps(key_range) and \
                    source.disk_space.holds(segment.segment_id):
                yield from ship_segment(cluster, segment, source, target,
                                        report)
