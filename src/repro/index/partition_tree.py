"""Key ranges and the one sorted range map over them (Sect. 4.3).

Partitions "only contain an index on top, keeping information about
key ranges in the attached segments", and the master "keeps a tree with
the primary-key ranges of all partitions": both are a :class:`RangeMap`.
The partition's :class:`PartitionTree` adds the forwarding pointers
that let in-flight queries find a moved segment's new home.
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


class RangeMap:
    """Non-overlapping key ranges by id: ``{id: (KeyRange, value)}``,
    whose order (each id's first put) :meth:`entries` reports, beside a
    view of the same tuples sorted by low key (``_lows`` parallel) plus
    the one entry unbounded below, which :meth:`find` bisects and
    :meth:`ordered` / :meth:`overlapping` read.  Mutations update both."""

    def __init__(self):
        self._entries: dict[typing.Any, tuple[KeyRange, typing.Any]] = {}
        self._lows: list = []
        self._sorted: list[tuple[KeyRange, typing.Any]] = []
        self._unbounded: tuple[KeyRange, typing.Any] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, entry_id: typing.Any) -> tuple[KeyRange, typing.Any] | None:
        return self._entries.get(entry_id)

    def range_of(self, entry_id: typing.Any) -> KeyRange:
        return self._entries[entry_id][0]

    def put(self, entry_id: typing.Any, key_range: KeyRange,
            value: typing.Any) -> typing.Any:
        """Map ``entry_id`` to ``(key_range, value)``, in place if the id
        is already here.  Returns None, or — changing nothing — the id of
        an entry whose range overlaps ``key_range``."""
        old = self._entries.get(entry_id)
        if old is not None:
            self._unlink(old[0])
        clash = self.overlapping(key_range)
        if clash:
            if old is not None:
                self._link(old)
            return next(other for other, entry in self._entries.items()
                        if entry is clash[0])
        entry = (key_range, value)
        self._entries[entry_id] = entry
        self._link(entry)
        return None

    def pop(self, entry_id: typing.Any) -> None:
        self._unlink(self._entries.pop(entry_id)[0])

    def _link(self, entry: tuple[KeyRange, typing.Any]) -> None:
        low = entry[0].low
        if low is None:
            self._unbounded = entry
            return
        i = bisect.bisect_left(self._lows, low)
        self._lows.insert(i, low)
        self._sorted.insert(i, entry)

    def _unlink(self, key_range: KeyRange) -> None:
        low = key_range.low
        if low is None:
            self._unbounded = None
            return
        i = bisect.bisect_left(self._lows, low)
        del self._lows[i]
        del self._sorted[i]

    def overlapping(self, key_range: KeyRange) -> list[tuple[KeyRange, typing.Any]]:
        """The entries overlapping ``key_range``, in view order: only the
        range unbounded below, the sorted neighbour below its low and the
        ranges starting inside it can."""
        lows = self._lows
        i = 0 if key_range.low is None else bisect.bisect_left(
            lows, key_range.low)
        j = len(lows) if key_range.high is None else bisect.bisect_left(
            lows, key_range.high)
        return [entry for entry in
                [self._unbounded, *self._sorted[max(i - 1, 0):j]]
                if entry is not None and entry[0].overlaps(key_range)]

    def find(self, key: typing.Any) -> typing.Any | None:
        """The value whose range contains ``key``."""
        # On every routed record operation.  The only candidates are the
        # range unbounded below and the last one whose low is <= ``key``.
        entry = self._unbounded
        if entry is not None:
            high = entry[0].high
            if high is None or key < high:
                return entry[1]
        i = bisect.bisect_right(self._lows, key)
        if i:
            key_range, value = self._sorted[i - 1]
            high = key_range.high
            if high is None or key < high:
                return value
        return None

    def ordered(self) -> list[tuple[KeyRange, typing.Any]]:
        """Every ``(range, value)`` by low key, unbounded below first."""
        if self._unbounded is None:
            return self._sorted[:]
        return [self._unbounded, *self._sorted]

    def entries(self) -> typing.Iterator[tuple[typing.Any, KeyRange, typing.Any]]:
        return ((i, r, value) for i, (r, value) in self._entries.items())


class PartitionTree(RangeMap):
    """A partition's top index: segment id -> key range and segment, or a
    :class:`Forwarding` once the segment has been shipped away.  The
    logical mover's batch order follows its :meth:`entries` order."""

    def __init__(self, partition_id: int):
        super().__init__()
        self.partition_id = partition_id

    def attach(self, segment_id: int, key_range: KeyRange, segment: typing.Any) -> None:
        """Splice a segment into the tree (the cheap top-index update
        that makes physiological repartitioning fast)."""
        other_id = self.put(segment_id, key_range, segment)
        if other_id is not None:
            raise ValueError(
                f"segment {segment_id} range {key_range} overlaps "
                f"segment {other_id} range {self.range_of(other_id)}"
            )

    def detach(self, segment_id: int) -> None:
        if segment_id not in self._entries:
            raise KeyError(f"segment {segment_id} not in partition tree")
        self.pop(segment_id)

    def forward(self, segment_id: int, target_node_id: int) -> None:
        """Replace a segment entry with a pointer to its new node."""
        self.put(segment_id, self.range_of(segment_id),
                 Forwarding(segment_id, target_node_id))

    def retire_forwarding(self, segment_id: int) -> None:
        """Drop a forwarding pointer once all old transactions drained."""
        entry = self._entries.get(segment_id)
        if entry is None or not isinstance(entry[1], Forwarding):
            raise KeyError(f"no forwarding pointer for segment {segment_id}")
        self.pop(segment_id)

    def find_range(self, key_range: KeyRange) -> list[typing.Any]:
        """All segments/forwardings overlapping ``key_range`` — segment
        pruning for range queries (Sect. 4.3)."""
        return [target for r, target in self._entries.values()
                if r.overlaps(key_range)]

    def covered_range(self) -> KeyRange | None:
        """The hull of all attached ranges (None if empty): from the
        first entry of the sorted view to the last."""
        if not self._entries:
            return None
        first = self._unbounded or self._sorted[0]
        last = self._sorted[-1] if self._sorted else self._unbounded
        return KeyRange(first[0].low, last[0].high)
