"""The master's global partition table.

"To identify all partitions relevant to a query, the master keeps a
tree with the primary-key ranges of all partitions.  While
re-partitioning, both nodes, the sending and receiving, need to be
accessed by queries ...  Therefore, when repartitioning starts, the
master is updated first, keeping pointers to both, the old and new
node.  After repartitioning, the old pointer is deleted." (Sect. 4.3)
"""

from __future__ import annotations

import dataclasses
import typing

from repro.index.partition_tree import KeyRange, RangeMap


@dataclasses.dataclass
class PartitionLocation:
    """Where a partition lives, with the optional second pointer that
    exists only during an ownership move."""

    partition_id: int
    node_id: int
    moving_to_node_id: int | None = None
    #: Cleared when the owning node fails with no replica to promote
    #: (replication factor 1).  Routing refuses unavailable partitions
    #: outright so clients fail fast instead of hanging.
    available: bool = True
    #: Ownership epoch, bumped whenever the owner is resolved anew
    #: (move finished/aborted, replica promoted).  Movers capture the
    #: epoch when they start and must find it unchanged at their switch
    #: — the fence that stops a stale move from clobbering a promotion.
    epoch: int = 0

    @property
    def candidate_nodes(self) -> list[int]:
        """Node(s) a query must consider — both ends during a move."""
        if self.moving_to_node_id is None or self.moving_to_node_id == self.node_id:
            return [self.node_id]
        return [self.node_id, self.moving_to_node_id]

    @property
    def is_moving(self) -> bool:
        return self.moving_to_node_id is not None


class GlobalPartitionTable:
    """Per table, a :class:`RangeMap` from partition id to key range and
    location: ``locate`` bisects it, lookups by id are dict gets."""

    def __init__(self):
        self._tables: dict[str, RangeMap] = {}

    def register(self, table: str, key_range: KeyRange,
                 location: PartitionLocation) -> None:
        ranges = self._tables.setdefault(table, RangeMap())
        if ranges.get(location.partition_id) is not None:
            raise ValueError(f"partition {location.partition_id} already registered")
        other = ranges.put(location.partition_id, key_range, location)
        if other is not None:
            raise ValueError(f"range {key_range} overlaps partition "
                             f"{other}'s range {ranges.range_of(other)}")

    def unregister(self, table: str, partition_id: int) -> None:
        self._entry(table, partition_id)
        self._tables[table].pop(partition_id)

    def tables(self) -> list[str]:
        return list(self._tables)

    def partitions(self, table: str) -> list[tuple[KeyRange, PartitionLocation]]:
        return self._tables[table].ordered()

    def _entry(self, table: str, partition_id: int
               ) -> tuple[KeyRange, PartitionLocation]:
        entry = self._tables[table].get(partition_id)
        if entry is None:
            raise KeyError(f"partition {partition_id} not registered for {table}")
        return entry

    def locate(self, table: str, key: typing.Any) -> PartitionLocation:
        """Partition responsible for ``key``."""
        location = self._tables[table].find(key)
        if location is None:
            raise KeyError(f"no partition of {table!r} covers key {key!r}")
        return location

    def locate_range(self, table: str,
                     key_range: KeyRange) -> list[PartitionLocation]:
        """Partition pruning: only partitions overlapping the range."""
        return [loc for _r, loc in self._tables[table].overlapping(key_range)]

    def range_of(self, table: str, partition_id: int) -> KeyRange:
        return self._entry(table, partition_id)[0]

    # -- repartitioning bookkeeping (dual pointers) ------------------------

    def begin_move(self, table: str, partition_id: int, target_node_id: int) -> None:
        """Master learns of a move first: keep both pointers."""
        location = self._entry(table, partition_id)[1]
        if location.is_moving:
            raise RuntimeError(f"partition {partition_id} is already moving")
        location.moving_to_node_id = target_node_id

    def finish_move(self, table: str, partition_id: int) -> None:
        """Delete the old pointer: the target is now the sole owner."""
        location = self._entry(table, partition_id)[1]
        if not location.is_moving:
            raise RuntimeError(f"partition {partition_id} is not moving")
        location.node_id = location.moving_to_node_id
        location.moving_to_node_id = None
        location.epoch += 1

    def abort_move(self, table: str, partition_id: int) -> None:
        """Drop the new pointer: the source remains the owner."""
        location = self._entry(table, partition_id)[1]
        if not location.is_moving:
            raise RuntimeError(f"partition {partition_id} is not moving")
        location.moving_to_node_id = None
        location.epoch += 1

    def epoch_of(self, table: str, partition_id: int) -> int:
        """The partition's current ownership epoch (fencing token)."""
        return self._entry(table, partition_id)[1].epoch

    def split(self, table: str, partition_id: int, split_key: typing.Any,
              new_partition_id: int, new_node_id: int) -> None:
        """Split a partition's range at ``split_key``; the upper half
        becomes a new partition on ``new_node_id``."""
        key_range, location = self._entry(table, partition_id)
        low_range, high_range = key_range.split_at(split_key)
        self._tables[table].put(partition_id, low_range, location)
        self.register(
            table, high_range, PartitionLocation(new_partition_id, new_node_id),
        )

    def unsplit(self, table: str, partition_id: int,
                absorbed_partition_id: int) -> None:
        """Undo a :meth:`split`: remove the carved-out partition and
        give its range back to ``partition_id``.  The two ranges must be
        adjacent (which a split guarantees) — the rollback path for a
        split-mode range move that never switched a segment."""
        keeper_range, location = self._entry(table, partition_id)
        absorbed_range = self.range_of(table, absorbed_partition_id)
        if (keeper_range.high is not None
                and keeper_range.high == absorbed_range.low):
            merged = KeyRange(keeper_range.low, absorbed_range.high)
        elif (absorbed_range.high is not None
              and absorbed_range.high == keeper_range.low):
            merged = KeyRange(absorbed_range.low, keeper_range.high)
        else:
            raise ValueError(
                f"partitions {partition_id} and {absorbed_partition_id} "
                f"cover non-adjacent ranges {keeper_range} / {absorbed_range}"
            )
        ranges = self._tables[table]
        ranges.pop(absorbed_partition_id)
        ranges.put(partition_id, merged, location)
        location.epoch += 1

    def reassign(self, table: str, partition_id: int, new_node_id: int) -> None:
        """Repoint a partition at a new owner (replica promotion): the
        failed node's pointer is replaced, not dual-tracked — the old
        owner is dead and must not be visited."""
        location = self._entry(table, partition_id)[1]
        location.node_id = new_node_id
        location.moving_to_node_id = None
        location.available = True
        location.epoch += 1

    def set_available(self, table: str, partition_id: int,
                      available: bool) -> None:
        self._entry(table, partition_id)[1].available = available

    def locations_on(self, node_id: int
                     ) -> list[tuple[str, KeyRange, PartitionLocation]]:
        """Every (table, range, location) whose candidates include
        ``node_id`` — what failover must deal with when it dies."""
        return [(table, key_range, location)
                for table, ranges in self._tables.items()
                for key_range, location in ranges.ordered()
                if node_id in location.candidate_nodes]
