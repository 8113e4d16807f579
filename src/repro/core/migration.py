"""Segment-granular data movement machinery shared by the schemes.

Physical and physiological partitioning both ship raw segments — "all
pages in a segment will be copied/moved among nodes in one batch",
"copies data almost at raw disk speed".  The chunked copy itself (so
that concurrent query I/O can interleave on the disks and the wire, the
contention the paper measures in Fig. 6/7) lives in ``moves/mover.py``.
"""

from __future__ import annotations

import typing

from repro.storage.segment import Segment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode


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
