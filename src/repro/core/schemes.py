"""What a range move reports, and how a partition is cut into spans.

The first stage of the repartitioning pipeline (``core/migration.py``)
chooses the key ranges that move.  The segment schemes cut at segment
boundaries (:func:`segment_spans`); the record scheme is not bound to
them and cuts at key quantiles (:func:`split_key_at_fraction`).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.index.partition_tree import KeyRange
from repro.storage.segment import Segment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition
    from repro.cluster.worker import WorkerNode


@dataclasses.dataclass
class MoveReport:
    """What one range move cost."""

    scheme: str
    table: str
    source_node: int
    target_node: int
    records_moved: int = 0
    segments_moved: int = 0
    bytes_copied: int = 0
    conflicts: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    # -- fault accounting (filled from the move journal) -----------------
    #: Chunk transfers retried after a transient wire fault.
    retries: int = 0
    #: Retries that continued from a chunk checkpoint instead of byte 0.
    resumes: int = 0
    #: Bytes whose chunk had to be re-sent after a mid-copy fault.
    bytes_reshipped: int = 0
    #: True when the range move was interrupted after some segments had
    #: switched and left open (journal entry stays live) for a resume.
    suspended: bool = False


def ordered_segments(partition: "Partition") -> list[tuple[KeyRange, Segment]]:
    """The partition's segments in ascending key-range order."""
    entries = [
        (key_range, target)
        for _sid, key_range, target in partition.tree.entries()
        if isinstance(target, Segment)
    ]
    entries.sort(key=lambda e: (e[0].low is not None, e[0].low))
    return entries


def select_upper_segments(partition: "Partition",
                          fraction: float) -> list[tuple[KeyRange, Segment]]:
    """Segments from the top of the key space holding ~``fraction`` of
    the partition's records — the unit of movement for the
    segment-granular schemes."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    entries = ordered_segments(partition)
    total = sum(seg.record_count for _r, seg in entries)
    goal = total * fraction
    picked: list[tuple[KeyRange, Segment]] = []
    count = 0
    for key_range, segment in reversed(entries):
        if count >= goal:
            break
        picked.append((key_range, segment))
        count += segment.record_count
    picked.reverse()
    return picked


def split_key_at_fraction(partition: "Partition", fraction: float):
    """The key below which ~``(1 - fraction)`` of the records live —
    the range [key, +inf) holds the top ``fraction``.

    Returns None when the partition is empty.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    entries = ordered_segments(partition)
    total = sum(seg.record_count for _r, seg in entries)
    if total == 0:
        return None
    skip = int(total * (1 - fraction))
    seen = 0
    for _key_range, segment in entries:
        if seen + segment.record_count <= skip:
            seen += segment.record_count
            continue
        for key, _chain in segment.index_scan():
            if seen >= skip:
                return key
            seen += 1
    return None


def segment_chunks(partition: "Partition", fraction: float,
                   n_targets: int) -> list[list[tuple[KeyRange, Segment]]]:
    """Chop the top-``fraction`` segments into ``n_targets`` contiguous
    chunks (ascending key order).  Chunks are segment-aligned so the
    ownership-transferring schemes can split the global partition table
    exactly at segment boundaries."""
    selected = select_upper_segments(partition, fraction)
    if not selected:
        return []
    n_targets = min(n_targets, len(selected))
    base, extra = divmod(len(selected), n_targets)
    # The first ``extra`` chunks take one segment more.
    starts = [i * base + min(i, extra) for i in range(n_targets + 1)]
    return [selected[a:b] for a, b in zip(starts, starts[1:])]


def segment_spans(partition: "Partition", fraction: float,
                  targets: typing.Sequence["WorkerNode"]
                  ) -> list[tuple[KeyRange, "WorkerNode"]]:
    """The :func:`segment_chunks` as key ranges, each paired with its
    target, in ascending key order."""
    chunks = segment_chunks(partition, fraction, len(targets))
    return [(KeyRange(chunk[0][0].low, chunk[-1][0].high), target)
            for chunk, target in zip(chunks, targets)]
