"""Segment-granular data movement machinery shared by the schemes.

Physical and physiological partitioning both ship raw segments — "all
pages in a segment will be copied/moved among nodes in one batch",
"copies data almost at raw disk speed".  The copy is chunked so that
concurrent query I/O can interleave on the disks and the wire, which is
the contention the paper measures in Fig. 6/7.
"""

from __future__ import annotations

import typing

from repro.hardware import specs
from repro.hardware.disk import Disk, DiskFailedError
from repro.storage.disk_space import OutOfDiskSpaceError
from repro.storage.segment import Segment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode

#: Copy granularity: small enough to interleave with query I/O, large
#: enough to stay near sequential bandwidth.
COPY_CHUNK_BYTES = 2 * 1024 * 1024


def flush_segment_pages(worker: "WorkerNode", segment: Segment):
    """Generator: write back the segment's dirty buffered pages so the
    on-disk extent is current before it is copied.

    Pinned frames are flushed too (flush-under-pin): a pin means a
    reader/writer holds the frame, not that its current contents may
    be withheld from the extent — skipping pinned dirty frames would
    ship a stale on-disk image while the buffered page silently holds
    newer data.
    """
    for page in segment.pages:
        frame = worker.buffer._frames.get(page.page_id)
        if frame is not None and frame.dirty:
            yield from worker.buffer._write_back(page.page_id, None)
            frame.dirty = False


def copy_segment_bytes(cluster: "Cluster", segment: Segment,
                       source_disk: Disk, target_disk: Disk,
                       source: "WorkerNode", target: "WorkerNode"):
    """Generator: stream a segment's bytes source-disk -> wire ->
    target-disk in chunks.  Returns the byte count copied."""
    nbytes = max(segment.used_bytes, specs.PAGE_BYTES)
    remaining = nbytes
    first = True
    while remaining > 0:
        chunk = min(remaining, COPY_CHUNK_BYTES)
        yield from source_disk.read(chunk, sequential=not first)
        yield from cluster.network.transfer(source.port, target.port, chunk)
        yield from target_disk.write(chunk, sequential=not first)
        remaining -= chunk
        first = False
    return nbytes


def move_extent_local(cluster: "Cluster", worker: "WorkerNode",
                      segment: Segment, target_disk: Disk):
    """Generator: move a segment's extent between two disks of the SAME
    node — the paper's local balancing step ("utilization among storage
    disks is first locally balanced on each node, before an allocation
    of data from/to other nodes is considered", Sect. 3.4).

    Returns the bytes copied (0 when the segment already sits there).
    """
    source_disk = worker.disk_space.disk_of(segment.segment_id)
    if source_disk is target_disk:
        return 0
    # Refuse up front rather than discovering mid-protocol: a full (or
    # dead) target found after the copy would strand the segment with
    # its placement already torn down.
    if target_disk.failed:
        raise DiskFailedError(f"target disk {target_disk.name} has failed")
    if worker.disk_space.free_bytes(target_disk) < segment.extent_bytes:
        raise OutOfDiskSpaceError(
            f"disk {target_disk.name} lacks room for "
            f"segment {segment.segment_id}"
        )
    yield from flush_segment_pages(worker, segment)
    nbytes = max(segment.used_bytes, specs.PAGE_BYTES)
    remaining = nbytes
    first = True
    while remaining > 0:
        chunk = min(remaining, COPY_CHUNK_BYTES)
        yield from source_disk.read(chunk, sequential=not first)
        yield from target_disk.write(chunk, sequential=not first)
        remaining -= chunk
        first = False
    cluster.directory.unregister(segment.segment_id)
    worker.disk_space.evict(segment)
    try:
        worker.disk_space.place(segment, target_disk)
    except OutOfDiskSpaceError:
        # A concurrent placement filled the target during our copy I/O:
        # put the segment back where it was instead of orphaning it.
        worker.disk_space.place(segment, source_disk)
        cluster.directory.register(segment.segment_id, worker, source_disk)
        raise
    cluster.directory.register(segment.segment_id, worker, target_disk)
    return nbytes


def balance_local_disks(cluster: "Cluster", worker: "WorkerNode",
                        max_moves: int = 8):
    """Generator: even out extent counts across a node's data disks.

    Greedy: repeatedly move one segment from the fullest to the
    emptiest disk while the imbalance exceeds one extent.  Returns the
    number of extents moved.
    """
    moves = 0
    while moves < max_moves:
        # A failed disk is neither a donor nor a receiver: its extents
        # are unreadable and writes to it would just raise.
        disks = [d for d in worker.disk_space.disks if not d.failed]
        if len(disks) < 2:
            return moves
        by_use = sorted(disks, key=worker.disk_space.used_bytes)
        emptiest, fullest = by_use[0], by_use[-1]
        gap = (worker.disk_space.used_bytes(fullest)
               - worker.disk_space.used_bytes(emptiest))
        candidates = [
            seg_id for seg_id, disk in worker.disk_space.placements()
            if disk is fullest
        ]
        if not candidates:
            return moves
        # One extent's worth of gap is balanced enough.
        sample = None
        for seg_id in candidates:
            for partition in worker.partitions.values():
                segment = partition.segments.get(seg_id)
                if segment is not None:
                    sample = segment
                    break
            if sample is not None:
                break
        if sample is None or gap <= sample.extent_bytes:
            return moves
        if worker.disk_space.free_bytes(emptiest) < sample.extent_bytes:
            return moves
        yield from move_extent_local(cluster, worker, sample, emptiest)
        moves += 1
    return moves


def transfer_segment_storage(cluster: "Cluster", segment: Segment,
                             source: "WorkerNode", target: "WorkerNode",
                             fence: tuple[str, int] | None = None,
                             range_entry=None):
    """Generator: move a segment's physical extent between nodes.

    Flushes dirty pages, then hands the transfer to the cluster's
    :class:`~repro.moves.MoveManager`, which runs the journaled
    PREPARE -> COPY -> SWITCH -> DONE state machine: chunk-level
    checkpoints (an interrupted copy resumes, not restarts), bounded
    retry with backoff on transient wire faults, a per-move deadline,
    and — when ``fence`` names a ``(table, partition_id)`` — an epoch
    check at the switch.  On failure the move is rolled back (target
    extent evicted, journal entry closed) and
    :class:`~repro.moves.MoveFailedError` raised; the directory still
    points at the source.

    Logical ownership is NOT touched — that is each scheme's business.
    Returns the bytes copied.
    """
    yield from flush_segment_pages(source, segment)
    entry = yield from cluster.moves.transfer_segment(
        segment, source, target, fence=fence, range_entry=range_entry,
    )
    return entry.bytes_total
