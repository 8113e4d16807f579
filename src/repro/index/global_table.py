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

from repro.index.partition_tree import KeyRange


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
    """Per-table map from key range to partition location."""

    def __init__(self):
        self._tables: dict[str, list[tuple[KeyRange, PartitionLocation]]] = {}

    def register(self, table: str, key_range: KeyRange,
                 location: PartitionLocation) -> None:
        entries = self._tables.setdefault(table, [])
        for existing_range, existing_loc in entries:
            if existing_loc.partition_id == location.partition_id:
                raise ValueError(
                    f"partition {location.partition_id} already registered"
                )
            if existing_range.overlaps(key_range):
                raise ValueError(
                    f"range {key_range} overlaps partition "
                    f"{existing_loc.partition_id}'s range {existing_range}"
                )
        entries.append((key_range, location))
        entries.sort(key=lambda e: (e[0].low is not None, e[0].low))

    def unregister(self, table: str, partition_id: int) -> None:
        entries = self._tables.get(table, [])
        kept = [(r, l) for r, l in entries if l.partition_id != partition_id]
        if len(kept) == len(entries):
            raise KeyError(f"partition {partition_id} not registered for {table}")
        self._tables[table] = kept

    def tables(self) -> list[str]:
        return list(self._tables)

    def partitions(self, table: str) -> list[tuple[KeyRange, PartitionLocation]]:
        return list(self._entries(table))

    def _entries(self, table: str) -> list[tuple[KeyRange, PartitionLocation]]:
        """The stored list itself, for lookups that only read it."""
        entries = self._tables.get(table)
        if entries is None:
            raise KeyError(f"unknown table {table!r}")
        return entries

    def locate(self, table: str, key: typing.Any) -> PartitionLocation:
        """Partition responsible for ``key``."""
        for key_range, location in self._entries(table):
            if key_range.contains(key):
                return location
        raise KeyError(f"no partition of {table!r} covers key {key!r}")

    def locate_range(self, table: str,
                     key_range: KeyRange) -> list[PartitionLocation]:
        """Partition pruning: only partitions overlapping the range."""
        return [
            location for r, location in self._entries(table)
            if r.overlaps(key_range)
        ]

    def range_of(self, table: str, partition_id: int) -> KeyRange:
        for key_range, location in self._entries(table):
            if location.partition_id == partition_id:
                return key_range
        raise KeyError(f"partition {partition_id} not registered for {table}")

    # -- repartitioning bookkeeping (dual pointers) ------------------------

    def _location(self, table: str, partition_id: int) -> PartitionLocation:
        for _range, location in self._entries(table):
            if location.partition_id == partition_id:
                return location
        raise KeyError(f"partition {partition_id} not registered for {table}")

    def begin_move(self, table: str, partition_id: int, target_node_id: int) -> None:
        """Master learns of a move first: keep both pointers."""
        location = self._location(table, partition_id)
        if location.is_moving:
            raise RuntimeError(f"partition {partition_id} is already moving")
        location.moving_to_node_id = target_node_id

    def finish_move(self, table: str, partition_id: int) -> None:
        """Delete the old pointer: the target is now the sole owner."""
        location = self._location(table, partition_id)
        if not location.is_moving:
            raise RuntimeError(f"partition {partition_id} is not moving")
        location.node_id = location.moving_to_node_id
        location.moving_to_node_id = None
        location.epoch += 1

    def abort_move(self, table: str, partition_id: int) -> None:
        """Drop the new pointer: the source remains the owner."""
        location = self._location(table, partition_id)
        if not location.is_moving:
            raise RuntimeError(f"partition {partition_id} is not moving")
        location.moving_to_node_id = None
        location.epoch += 1

    def epoch_of(self, table: str, partition_id: int) -> int:
        """The partition's current ownership epoch (fencing token)."""
        return self._location(table, partition_id).epoch

    def split(self, table: str, partition_id: int, split_key: typing.Any,
              new_partition_id: int, new_node_id: int) -> None:
        """Split a partition's range at ``split_key``; the upper half
        becomes a new partition on ``new_node_id``."""
        entries = self.partitions(table)
        for i, (key_range, location) in enumerate(entries):
            if location.partition_id == partition_id:
                low_range, high_range = key_range.split_at(split_key)
                self._tables[table][i] = (low_range, location)
                self.register(
                    table, high_range,
                    PartitionLocation(new_partition_id, new_node_id),
                )
                return
        raise KeyError(f"partition {partition_id} not registered for {table}")

    def unsplit(self, table: str, partition_id: int,
                absorbed_partition_id: int) -> None:
        """Undo a :meth:`split`: remove the carved-out partition and
        give its range back to ``partition_id``.  The two ranges must be
        adjacent (which a split guarantees) — the rollback path for a
        split-mode range move that never switched a segment."""
        keeper_range = self.range_of(table, partition_id)
        absorbed_range = self.range_of(table, absorbed_partition_id)
        if keeper_range.high == absorbed_range.low:
            merged = KeyRange(keeper_range.low, absorbed_range.high)
        elif absorbed_range.high == keeper_range.low:
            merged = KeyRange(absorbed_range.low, keeper_range.high)
        else:
            raise ValueError(
                f"partitions {partition_id} and {absorbed_partition_id} "
                f"cover non-adjacent ranges {keeper_range} / {absorbed_range}"
            )
        self.unregister(table, absorbed_partition_id)
        entries = self._tables[table]
        for i, (key_range, location) in enumerate(entries):
            if location.partition_id == partition_id:
                entries[i] = (merged, location)
                location.epoch += 1
                return
        raise KeyError(f"partition {partition_id} not registered for {table}")

    def reassign(self, table: str, partition_id: int, new_node_id: int) -> None:
        """Repoint a partition at a new owner (replica promotion): the
        failed node's pointer is replaced, not dual-tracked — the old
        owner is dead and must not be visited."""
        location = self._location(table, partition_id)
        location.node_id = new_node_id
        location.moving_to_node_id = None
        location.available = True
        location.epoch += 1

    def set_available(self, table: str, partition_id: int,
                      available: bool) -> None:
        self._location(table, partition_id).available = available

    def locations_on(self, node_id: int
                     ) -> list[tuple[str, KeyRange, PartitionLocation]]:
        """Every (table, range, location) whose candidates include
        ``node_id`` — what failover must deal with when it dies."""
        out = []
        for table, entries in self._tables.items():
            for key_range, location in entries:
                if node_id in location.candidate_nodes:
                    out.append((table, key_range, location))
        return out
