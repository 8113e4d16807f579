"""Key ranges and the per-partition *top index* over segments.

In physiological partitioning, "partitions only contain an index on
top, keeping information about key ranges in the attached segments"
(Sect. 4.3).  This module implements that small top index, including
the forwarding pointers the repartitioning protocol installs on the
source node so in-flight queries find a moved segment's new home.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class KeyRange:
    """A half-open primary-key interval ``[low, high)``.

    ``low=None`` means unbounded below; ``high=None`` unbounded above.
    """

    low: typing.Any = None
    high: typing.Any = None

    def __post_init__(self):
        if self.low is not None and self.high is not None and self.low >= self.high:
            raise ValueError(f"empty key range: [{self.low}, {self.high})")

    def contains(self, key: typing.Any) -> bool:
        if self.low is not None and key < self.low:
            return False
        if self.high is not None and key >= self.high:
            return False
        return True

    def overlaps(self, other: "KeyRange") -> bool:
        if self.high is not None and other.low is not None and self.high <= other.low:
            return False
        if other.high is not None and self.low is not None and other.high <= self.low:
            return False
        return True

    def split_at(self, key: typing.Any) -> tuple["KeyRange", "KeyRange"]:
        """Split into ``[low, key)`` and ``[key, high)``."""
        if not self.contains(key):
            raise ValueError(f"split key {key!r} outside {self}")
        if self.low is not None and key == self.low:
            raise ValueError("split key equals the lower bound")
        return KeyRange(self.low, key), KeyRange(key, self.high)

    def __str__(self) -> str:
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        return f"[{low}, {high})"


@dataclasses.dataclass
class Forwarding:
    """A pointer left behind when a segment moved to another node."""

    segment_id: int
    target_node_id: int


class SegmentMovedError(RuntimeError):
    """An access hit a forwarding pointer: the segment lives elsewhere
    now.

    The routing layer catches this and re-issues the access on the
    target node (the paper's redirection of in-flight queries)."""

    def __init__(self, segment_id: int, target_node_id: int):
        super().__init__(f"segment {segment_id} moved to node {target_node_id}")
        self.segment_id = segment_id
        self.target_node_id = target_node_id


class PartitionTree:
    """The top index of one partition: key range -> attached segment.

    Entries are keyed by segment id.  Lookup returns either
    the segment object or a :class:`Forwarding` if the segment has been
    shipped away and the pointer not yet retired.
    """

    def __init__(self, partition_id: int):
        self.partition_id = partition_id
        # segment id -> (KeyRange, segment-or-forwarding).
        self._entries: dict[int, tuple[KeyRange, typing.Any]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def attach(self, segment_id: int, key_range: KeyRange, segment: typing.Any) -> None:
        """Splice a segment into the tree (the cheap top-index update
        that makes physiological repartitioning fast)."""
        for other_id, (other_range, _target) in self._entries.items():
            if other_id != segment_id and other_range.overlaps(key_range):
                raise ValueError(
                    f"segment {segment_id} range {key_range} overlaps "
                    f"segment {other_id} range {other_range}"
                )
        self._entries[segment_id] = (key_range, segment)

    def detach(self, segment_id: int) -> None:
        if segment_id not in self._entries:
            raise KeyError(f"segment {segment_id} not in partition tree")
        del self._entries[segment_id]

    def forward(self, segment_id: int, target_node_id: int) -> None:
        """Replace a segment entry with a pointer to its new node."""
        key_range, _old = self._entries[segment_id]
        self._entries[segment_id] = (
            key_range, Forwarding(segment_id, target_node_id),
        )

    def retire_forwarding(self, segment_id: int) -> None:
        """Drop a forwarding pointer once all old transactions drained."""
        entry = self._entries.get(segment_id)
        if entry is None or not isinstance(entry[1], Forwarding):
            raise KeyError(f"no forwarding pointer for segment {segment_id}")
        del self._entries[segment_id]

    def find(self, key: typing.Any) -> typing.Any | None:
        """Segment (or Forwarding) whose range contains ``key``."""
        # KeyRange.contains, inlined: this lookup sits on every routed
        # record operation.
        for key_range, target in self._entries.values():
            low = key_range.low
            if low is not None and key < low:
                continue
            high = key_range.high
            if high is not None and key >= high:
                continue
            return target
        return None

    def find_range(self, key_range: KeyRange) -> list[typing.Any]:
        """All segments/forwardings overlapping ``key_range`` — segment
        pruning for range queries (Sect. 4.3)."""
        return [
            target for r, target in self._entries.values() if r.overlaps(key_range)
        ]

    def range_of(self, segment_id: int) -> KeyRange:
        return self._entries[segment_id][0]

    def entries(self) -> typing.Iterator[tuple[int, KeyRange, typing.Any]]:
        for segment_id, (key_range, target) in self._entries.items():
            yield segment_id, key_range, target

    def covered_range(self) -> KeyRange | None:
        """The hull of all attached ranges (None if empty)."""
        if not self._entries:
            return None
        lows = [r.low for r, _ in self._entries.values()]
        highs = [r.high for r, _ in self._entries.values()]
        low = None if any(l is None for l in lows) else min(lows)
        high = None if any(h is None for h in highs) else max(highs)
        return KeyRange(low, high)
