"""Key ranges and the per-partition *top index* over segments.

In physiological partitioning, "partitions only contain an index on
top, keeping information about key ranges in the attached segments"
(Sect. 4.3).  This module implements that small top index, including
the forwarding pointers the repartitioning protocol installs on the
source node so in-flight queries find a moved segment's new home.
"""

from __future__ import annotations

import bisect
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

    Attached ranges never overlap, so :meth:`find` bisects a view of
    the entries sorted by low key; the one range unbounded below (if
    any) sits beside it.  Every mutation updates the view in place.
    """

    def __init__(self, partition_id: int):
        self.partition_id = partition_id
        # segment id -> (KeyRange, segment-or-forwarding).  Its order is
        # what find_range / entries report, and the logical mover's
        # batch order follows it.
        self._entries: dict[int, tuple[KeyRange, typing.Any]] = {}
        # The same entry tuples sorted by low key (``_lows`` parallel),
        # and the one entry whose range is unbounded below.
        self._lows: list = []
        self._sorted: list[tuple[KeyRange, typing.Any]] = []
        self._unbounded: tuple[KeyRange, typing.Any] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def attach(self, segment_id: int, key_range: KeyRange, segment: typing.Any) -> None:
        """Splice a segment into the tree (the cheap top-index update
        that makes physiological repartitioning fast)."""
        old = self._entries.get(segment_id)
        if old is not None:
            self._unlink(old[0])
        clash = self._overlapping(key_range)
        if clash is not None:
            if old is not None:
                self._link(old)
            other_id = next(sid for sid, other in self._entries.items()
                            if other is clash)
            raise ValueError(
                f"segment {segment_id} range {key_range} overlaps "
                f"segment {other_id} range {clash[0]}"
            )
        entry = (key_range, segment)
        self._entries[segment_id] = entry
        self._link(entry)

    def detach(self, segment_id: int) -> None:
        if segment_id not in self._entries:
            raise KeyError(f"segment {segment_id} not in partition tree")
        self._unlink(self._entries.pop(segment_id)[0])

    def forward(self, segment_id: int, target_node_id: int) -> None:
        """Replace a segment entry with a pointer to its new node."""
        key_range, _old = self._entries[segment_id]
        entry = (key_range, Forwarding(segment_id, target_node_id))
        self._entries[segment_id] = entry
        self._link(entry, replace=True)

    def retire_forwarding(self, segment_id: int) -> None:
        """Drop a forwarding pointer once all old transactions drained."""
        entry = self._entries.get(segment_id)
        if entry is None or not isinstance(entry[1], Forwarding):
            raise KeyError(f"no forwarding pointer for segment {segment_id}")
        del self._entries[segment_id]
        self._unlink(entry[0])

    def _link(self, entry: tuple[KeyRange, typing.Any],
              replace: bool = False) -> None:
        """Put ``entry`` in the sorted view (``replace``: over the entry
        already there for the same range)."""
        low = entry[0].low
        if low is None:
            self._unbounded = entry
            return
        i = bisect.bisect_left(self._lows, low)
        if replace:
            self._sorted[i] = entry
        else:
            self._lows.insert(i, low)
            self._sorted.insert(i, entry)

    def _overlapping(self, key_range: KeyRange) -> tuple | None:
        """The view's entry overlapping ``key_range``, if any.  Only the
        range unbounded below and the two sorted neighbours of
        ``key_range.low`` can: every other range ends below the lower
        neighbour's low or starts above the upper one's."""
        i = 0 if key_range.low is None else bisect.bisect_left(
            self._lows, key_range.low)
        for entry in [self._unbounded, *self._sorted[max(i - 1, 0):i + 1]]:
            if entry is not None and entry[0].overlaps(key_range):
                return entry
        return None

    def _unlink(self, key_range: KeyRange) -> None:
        low = key_range.low
        if low is None:
            self._unbounded = None
            return
        i = bisect.bisect_left(self._lows, low)
        del self._lows[i]
        del self._sorted[i]

    def find(self, key: typing.Any) -> typing.Any | None:
        """Segment (or Forwarding) whose range contains ``key``."""
        # This lookup sits on every routed record operation.  Ranges do
        # not overlap, so the only candidates are the range unbounded
        # below and the last one whose low key is <= ``key``.
        entry = self._unbounded
        if entry is not None:
            high = entry[0].high
            if high is None or key < high:
                return entry[1]
        i = bisect.bisect_right(self._lows, key)
        if i:
            key_range, target = self._sorted[i - 1]
            high = key_range.high
            if high is None or key < high:
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
