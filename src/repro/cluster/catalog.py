"""The logical schema objects of Fig. 4.

"A DB table is a purely logical construct in WattDB.  Its metadata
(column definitions, partitioning scheme) is maintained on the master
node.  Each table is composed of k horizontal partitions, each
belonging to a specific node, responsible for query evaluation, data
integrity (logging), and access synchronization (locking)."
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import typing

from repro.index.partition_tree import KeyRange, PartitionTree
from repro.storage.record import RecordVersion, Schema
from repro.storage.segment import Segment, SegmentFullError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.worker import WorkerNode


def successor(key: typing.Any) -> typing.Any:
    """The smallest representable key strictly greater than ``key``.

    Needed when a full segment's range is split right after its
    current maximum key.
    """
    if isinstance(key, bool):  # bool is an int subtype; reject explicitly
        raise TypeError("bool keys are not supported")
    if isinstance(key, int):
        return key + 1
    if isinstance(key, str):
        return key + "\x00"
    if isinstance(key, tuple):
        return key[:-1] + (successor(key[-1]),)
    raise TypeError(f"no successor rule for key type {type(key).__name__}")


@dataclasses.dataclass(frozen=True)
class TableDef:
    """Table metadata kept on the master."""

    name: str
    schema: Schema


class Partition:
    """A horizontal partition: a top index over segments, owned by a node."""

    def __init__(self, partition_id: int, table: TableDef, node_id: int,
                 segment_max_pages: int, page_bytes: int,
                 segment_id_allocator: typing.Callable[[], int]):
        self.partition_id = partition_id
        self.table = table
        self.node_id = node_id
        self.segment_max_pages = segment_max_pages
        self.page_bytes = page_bytes
        self._alloc_segment_id = segment_id_allocator
        self.tree = PartitionTree(partition_id)
        self.segments: dict[int, Segment] = {}
        #: Optional clamp on auto-created segment ranges — set on
        #: migration-target partitions so they never claim keys outside
        #: the range that moved to them.
        self.bounds: KeyRange | None = None
        #: Cleared while this partition is the *receiver* of an
        #: in-flight range move: the source stays authoritative for
        #: every key range that has not switched yet, so the target must
        #: not mint segments for uncovered keys (an insert failing over
        #: here while the source is down would otherwise create a
        #: segment spanning the whole unmoved range, colliding with the
        #: real segments when they arrive).  Restored when the move
        #: closes.
        self.accepts_uncovered: bool = True
        #: The mirror rule for the *source* of an open range move:
        #: ``{target partition id: moving key range}``.  Once a switched
        #: segment's forwarding stub is retired, the gap it leaves
        #: belongs to the target; a segment minted there would collide
        #: with the real one when the mover's live-tree rescan ships it.
        #: An entry is dropped when its move closes or rolls back.
        self.moving_out: dict[int, KeyRange] = {}
        #: Secondary B-trees; "indexes ... span only one partition at a
        #: time" (Sect. 4), so they are rebuilt for segments arriving
        #: via migration (see attach_segment).
        self.secondary_indexes: dict[str, "SecondaryIndex"] = {}

    @property
    def schema(self) -> Schema:
        return self.table.schema

    # -- segment management -----------------------------------------------

    def new_segment(self, key_range: KeyRange) -> Segment:
        """Create and attach an empty segment covering ``key_range``."""
        segment = Segment(
            self._alloc_segment_id(), self.table.name,
            max_pages=self.segment_max_pages, page_bytes=self.page_bytes,
        )
        self.attach_segment(segment, key_range)
        return segment

    def attach_segment(self, segment: Segment, key_range: KeyRange) -> None:
        self.tree.attach(segment.segment_id, key_range, segment)
        self.segments[segment.segment_id] = segment
        if self.secondary_indexes:
            for _pno, _slot, version in segment.scan_versions():
                self.index_row(version.values)

    def detach_segment(self, segment_id: int) -> Segment:
        segment = self.segments.pop(segment_id)
        self.tree.detach(segment_id)
        return segment

    def segment_for(self, key: typing.Any):
        """Segment (or Forwarding) covering ``key``, or None."""
        return self.tree.find(key)

    def ensure_segment_for(self, key: typing.Any) -> Segment:
        """Segment covering ``key``, creating one over the uncovered gap
        if necessary (first insert into a fresh key region)."""
        found = self.tree.find(key)
        if found is not None:
            return found  # may be a Forwarding; caller checks
        if not self.accepts_uncovered or any(
                moving.contains(key) for moving in self.moving_out.values()):
            from repro.cluster.worker import RecordNotHereError

            raise RecordNotHereError(
                f"partition {self.partition_id} is one end of an open range "
                f"move and must not create a segment for key {key!r}"
            )
        gap = self._uncovered_gap_around(key)
        return self.new_segment(gap)

    def _uncovered_gap_around(self, key: typing.Any) -> KeyRange:
        """The maximal uncovered range containing ``key``, clamped to
        :attr:`bounds` when set."""
        low = None if self.bounds is None else self.bounds.low
        high = None if self.bounds is None else self.bounds.high
        for _sid, key_range, _target in self.tree.entries():
            if key_range.high is not None and key_range.high <= key:
                if low is None or key_range.high > low:
                    low = key_range.high
            if key_range.low is not None and key_range.low > key:
                if high is None or key_range.low < high:
                    high = key_range.low
        return KeyRange(low, high)

    def split_full_segment(self, segment: Segment,
                           pending_key: typing.Any = None) -> Segment:
        """Make room around a full segment.

        Append-friendly case (the pending key lies above every stored
        key): the range above the maximum is handed to a fresh empty
        segment — how orders/history grow.  Otherwise a median split
        redistributes the upper half of the records into the new
        segment, the segment-level analogue of a B-tree page split.
        Callers must re-resolve which segment now covers their key.
        """
        key_range = self.tree.range_of(segment.segment_id)
        split_key = successor(segment.max_key())
        tail_works = key_range.contains(split_key) and (
            pending_key is None or pending_key >= split_key
        )
        if tail_works:
            low_range, high_range = key_range.split_at(split_key)
            self.tree.detach(segment.segment_id)
            self.tree.attach(segment.segment_id, low_range, segment)
            return self.new_segment(high_range)
        return self._median_split(segment, key_range)

    def place(self, worker: "WorkerNode", segment: Segment,
              version: RecordVersion, insert: typing.Callable,
              *args: typing.Any) -> tuple[Segment, tuple[int, int]]:
        """Insert ``version`` into ``segment``, the one its key resolved
        to, by the caller's step ``insert(segment, version, *args)``
        (``mvcc.insert`` under a transaction; a load goes through
        :meth:`place_run`).  The one full-segment rule: split around the
        key, host the new segment on ``worker``, re-resolve (the key may
        now belong to either half) and insert again.  Returns the
        segment the version landed in and its ``(page_no, slot)``."""
        try:
            return segment, insert(segment, version, *args)
        except SegmentFullError:
            worker.ensure_hosted(self.split_full_segment(segment, version.key))
            segment = self.segment_for(version.key)
            return segment, insert(segment, version, *args)

    def place_run(self, worker: "WorkerNode",
                  versions: typing.Sequence[RecordVersion]) -> None:
        """Store committed load ``versions``, keys strictly ascending
        and inside :attr:`bounds`, by one :meth:`Segment.insert_run` per
        segment they cross; each lands where :meth:`place` with
        ``Segment.insert_version`` would put it.  The same full-segment
        rule: where an extent fills, split around the pending key, host
        the new segment on ``worker`` and go on there."""
        keys = [version.key for version in versions]
        start, stop = 0, len(versions)
        while start < stop:
            segment = self.ensure_segment_for(keys[start])
            worker.ensure_hosted(segment)
            high = self.tree.range_of(segment.segment_id).high
            end = stop if high is None else bisect.bisect_left(
                keys, high, start, stop)
            start = segment.insert_run(versions, start, end)
            if start < end:
                worker.ensure_hosted(
                    self.split_full_segment(segment, keys[start]))

    def _median_split(self, segment: Segment, key_range: KeyRange) -> Segment:
        keys = [k for k, _chain in segment.index_scan()]
        median = keys[len(keys) // 2]
        if median == keys[0]:
            raise RuntimeError(
                f"segment {segment.segment_id} cannot be split: "
                f"median equals the lowest key {median!r}"
            )
        low_range, high_range = key_range.split_at(median)
        self.tree.detach(segment.segment_id)
        self.tree.attach(segment.segment_id, low_range, segment)
        new_segment = self.new_segment(high_range)
        moved = [
            (key, list(chain))
            for key, chain in segment.index_scan(lo=median)
        ]
        for key, chain in moved:
            # Oldest first, so the newest version ends up at the chain
            # head in the receiving segment.
            for page_no, slot in reversed(chain):
                version = segment.remove_version(key, page_no, slot)
                new_segment.insert_version(version, allow_overflow=True)
        return new_segment

    # -- secondary indexes -----------------------------------------------

    def create_secondary_index(self, name: str,
                               key_columns: typing.Sequence[str]):
        """Build a secondary index over the partition's current data."""
        from repro.index.secondary import SecondaryIndex

        if name in self.secondary_indexes:
            raise ValueError(f"index {name!r} already exists")
        index = SecondaryIndex(name, key_columns, self.schema)
        for segment in self.segments.values():
            for _pno, _slot, version in segment.scan_versions():
                index.add(version.values)
        self.secondary_indexes[name] = index
        return index

    def index_row(self, values: typing.Sequence) -> None:
        """Register a row (version) in every secondary index."""
        for index in self.secondary_indexes.values():
            index.add(values)

    # -- stats ----------------------------------------------------------

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def record_count(self) -> int:
        return sum(s.record_count for s in self.segments.values())

    @property
    def used_bytes(self) -> int:
        return sum(s.used_bytes for s in self.segments.values())

    def covered_range(self) -> KeyRange | None:
        return self.tree.covered_range()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Partition {self.partition_id} table={self.table.name} "
            f"node={self.node_id} segments={self.segment_count}>"
        )


class Catalog:
    """Master-side registry of tables, id allocation, and replica
    placement metadata (the HA subsystem's replica sets live here so
    failover can consult one authority)."""

    def __init__(self, segment_max_pages: int, page_bytes: int):
        self.segment_max_pages = segment_max_pages
        self.page_bytes = page_bytes
        self.tables: dict[str, TableDef] = {}
        self._partition_ids = itertools.count(1)
        self._segment_ids = itertools.count(1)
        #: partition_id -> ReplicaSet (see repro.ha.replication).
        self.replica_sets: dict[int, typing.Any] = {}

    def define_table(self, name: str, schema: Schema) -> TableDef:
        if name in self.tables:
            raise ValueError(f"table {name!r} already defined")
        table = TableDef(name, schema)
        self.tables[name] = table
        return table

    def table(self, name: str) -> TableDef:
        if name not in self.tables:
            raise KeyError(f"unknown table {name!r}")
        return self.tables[name]

    def new_partition(self, table: str | TableDef, node_id: int,
                      segment_max_pages: int | None = None) -> Partition:
        table_def = table if isinstance(table, TableDef) else self.table(table)
        return Partition(
            next(self._partition_ids), table_def, node_id,
            segment_max_pages or self.segment_max_pages, self.page_bytes,
            segment_id_allocator=lambda: next(self._segment_ids),
        )

    def rebuild_partition(self, partition_id: int, table: str | TableDef,
                          node_id: int) -> Partition:
        """An empty partition shell carrying an *existing* id, for
        replica promotion: the promoted copy keeps the dead partition's
        identity so the global partition table and replica set need
        only repoint, never renumber."""
        table_def = table if isinstance(table, TableDef) else self.table(table)
        return Partition(
            partition_id, table_def, node_id,
            self.segment_max_pages, self.page_bytes,
            segment_id_allocator=lambda: next(self._segment_ids),
        )

    # -- replica placement metadata ----------------------------------------

    def register_replica_set(self, replica_set: typing.Any) -> None:
        self.replica_sets[replica_set.partition_id] = replica_set

    def replica_set_for(self, partition_id: int) -> typing.Any | None:
        return self.replica_sets.get(partition_id)

    def replica_sets_holding_on(self, node_id: int) -> list[typing.Any]:
        """Replica sets with at least one replica hosted on ``node_id``."""
        return [
            rs for rs in self.replica_sets.values()
            if any(r.holder_node_id == node_id for r in rs.replicas)
        ]
