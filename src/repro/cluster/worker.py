"""A worker node's DBMS instance: local storage, buffer, WAL, and the
record access layer (under MVCC or MGL-RX).

Each worker owns partitions — "the node owning a partition is
responsible for its integrity and concurrency control" — but may also
*host* segments it does not own (shared-disk style), which is exactly
the physical-partitioning configuration whose remote page reads the
paper measures as its downfall.
"""

from __future__ import annotations

import typing

from repro.hardware import specs
from repro.hardware.disk import Disk
from repro.hardware.network import Network
from repro.hardware.node import NodeMachine
from repro.hardware.power import PowerState
from repro.index.partition_tree import (
    Forwarding,
    KeyRange,
    SegmentMovedError,
)
from repro.metrics.breakdown import CostBreakdown
from repro.sim.engine import DONE, Environment, after
from repro.storage.buffer import BufferPool
from repro.storage.disk_space import DiskSpaceManager
from repro.storage.page import Page
from repro.storage.record import RecordVersion
from repro.storage.segment import Segment
from repro.txn import LockMode, TransactionManager, mvcc
from repro.txn.manager import Transaction
from repro.txn.wal import LOG_RECORD_HEADER_BYTES, LogManager

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition
    from repro.cluster.cluster import SegmentDirectory


class RecordNotHereError(RuntimeError):
    """This node holds no partition covering the key — the router
    should try the other candidate node."""


class _SegmentPageIO:
    """Resolves a page's physical home at I/O time.

    Local segments read/write the owning disk directly; segments hosted
    on another node (physical partitioning) pay an RPC plus the wire
    transfer of the page on top of the remote disk access.  Each step
    is charged once, here: the disk access to ``disk_io``, the RPC and
    the wire to ``network_io``.
    """

    def __init__(self, worker: "WorkerNode", segment_id: int):
        self.worker = worker
        self.segment_id = segment_id

    def _locate(self) -> tuple["WorkerNode", Disk]:
        return self.worker.directory.location(self.segment_id)

    def read(self, breakdown: CostBreakdown | None):
        host, disk = self._locate()
        env = self.worker.env
        if host is self.worker:
            t0 = env.now
            yield from disk.read_page()
            if breakdown is not None:
                breakdown.add("disk_io", env.now - t0)
            return
        network = self.worker.network
        t0 = env.now
        yield from network.rpc_delay()
        t1 = env.now
        yield from disk.read_page()
        t2 = env.now
        yield from network.transfer(host.port, self.worker.port,
                                    specs.PAGE_BYTES)
        if breakdown is not None:
            breakdown.add("disk_io", t2 - t1)
            breakdown.add("network_io", (t1 - t0) + (env.now - t2))

    def write(self, breakdown: CostBreakdown | None):
        host, disk = self._locate()
        env = self.worker.env
        t0 = env.now
        if host is not self.worker:
            yield from self.worker.network.transfer(
                self.worker.port, host.port, specs.PAGE_BYTES)
            if breakdown is not None:
                breakdown.add("network_io", env.now - t0)
            t0 = env.now
        yield from disk.write_page()
        if breakdown is not None:
            breakdown.add("disk_io", env.now - t0)


class WorkerNode:
    """The DBMS software running on one cluster node."""

    def __init__(self, env: Environment, machine: NodeMachine, network: Network,
                 txns: TransactionManager, directory: "SegmentDirectory",
                 buffer_pages: int):
        self.env = env
        self.machine = machine
        self.network = network
        self.txns = txns
        self.directory = directory

        data_disks, log_disk = self._assign_disk_roles(machine.disks)
        self.log_disk = log_disk
        self.disk_space = DiskSpaceManager(data_disks)
        self.wal = LogManager(env, log_disk, name=f"node{machine.node_id}.wal")
        self.buffer = BufferPool(
            env, machine.cpu, buffer_pages,
            resolver=self._resolve_page_io,
            name=f"node{machine.node_id}.buffer",
        )
        self.partitions: dict[int, "Partition"] = {}
        self._page_segment: dict[int, int] = {}
        #: Per-partition activity counters for the monitor (Sect. 3.4).
        self.partition_page_requests: dict[int, int] = {}
        self.queries_executed = 0
        #: Newest fuzzy-checkpoint base images, one per local partition
        #: (:mod:`repro.txn.checkpoint` replaces the whole dict each
        #: checkpoint, so memory stays bounded on endurance runs).
        self.checkpoint_images: dict[int, typing.Any] = {}
        #: Reads answered from segment replicas hosted here (the read
        #: tier dispatches them; the count feeds ``metrics.report``).
        self.replica_reads_served = 0

    @staticmethod
    def _assign_disk_roles(disks: typing.Sequence[Disk]) -> tuple[list[Disk], Disk]:
        """Data on the fast disks, WAL on the HDD when one exists."""
        if not disks:
            raise ValueError("a worker needs at least one disk")
        hdds = [d for d in disks if d.spec.kind == "hdd"]
        if hdds and len(disks) > 1:
            log_disk = hdds[0]
            data = [d for d in disks if d is not log_disk]
        else:
            log_disk = disks[0]
            data = list(disks)
        return data, log_disk

    # -- identity ----------------------------------------------------------

    @property
    def node_id(self) -> int:
        return self.machine.node_id

    @property
    def cpu(self):
        return self.machine.cpu

    @property
    def port(self):
        return self.machine.port

    @property
    def is_active(self) -> bool:
        return self.machine.is_active

    @property
    def is_serving(self) -> bool:
        """Whether this node can currently answer routed requests: the
        machine is up, its NIC is attached, and its data storage works.
        The router treats a non-serving candidate as down."""
        # One flat test over the fields, a loop rather than
        # any(<genexpr>): routing and every replica read ask this.
        machine = self.machine
        if machine._state is not PowerState.ACTIVE or machine.port.severed:
            return False
        for disk in self.disk_space.disks:
            if disk.failed:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkerNode {self.node_id} partitions={len(self.partitions)}>"

    # -- partition & segment hosting ----------------------------------------

    def add_partition(self, partition: "Partition") -> None:
        partition.node_id = self.node_id
        self.partitions[partition.partition_id] = partition

    def remove_partition(self, partition_id: int) -> "Partition":
        return self.partitions.pop(partition_id)

    def partitions_for_table(self, table: str) -> list["Partition"]:
        return [p for p in self.partitions.values() if p.table.name == table]

    def host_segment(self, segment: Segment) -> Disk:
        """Store a segment's extent on a local disk and publish it."""
        chosen = self.disk_space.place(segment)
        self.directory.register(segment.segment_id, self, chosen)
        return chosen

    def ensure_hosted(self, segment: Segment) -> None:
        """Place a freshly created segment's extent if it has no home."""
        if segment.segment_id not in self.directory:
            self.host_segment(segment)

    def strip_partition(self, partition_id: int) -> "Partition | None":
        """Forget a partition after its ownership was promoted away
        (this node failed; the copy that lives here is now garbage).
        Tolerates partial state — the node may have died mid-operation."""
        partition = self.partitions.pop(partition_id, None)
        if partition is None:
            return None
        for segment in list(partition.segments.values()):
            if segment.segment_id in self.directory:
                host, _disk = self.directory.location(segment.segment_id)
                if host is self:
                    self.directory.unregister(segment.segment_id)
            try:
                self.disk_space.evict(segment)
            except KeyError:
                pass
            self._forget_pages(segment)
        return partition

    def unhost_segment(self, segment: Segment) -> None:
        self.disk_space.evict(segment)
        self.directory.unregister(segment.segment_id)
        self._forget_pages(segment)

    def _forget_pages(self, segment: Segment) -> None:
        """Drop the buffered pages of a segment whose extent just left
        this node for good."""
        page_ids = [page.page_id for page in segment.pages]
        self.buffer.forget(page_ids)
        for page_id in page_ids:
            self._page_segment.pop(page_id, None)

    # -- page access ----------------------------------------------------------

    def _resolve_page_io(self, page_id: int) -> _SegmentPageIO:
        segment_id = self._page_segment.get(page_id)
        if segment_id is None:
            raise KeyError(f"node {self.node_id}: unknown page {page_id}")
        return _SegmentPageIO(self, segment_id)

    def fetch_page(self, page: Page, breakdown: CostBreakdown | None = None):
        """Pin ``page`` through this node's buffer pool (a step:
        :meth:`BufferPool.fetch`)."""
        self._page_segment[page.page_id] = page.segment_id
        return self.buffer.fetch(page.page_id, breakdown)

    def unpin_page(self, page: Page, dirty: bool = False) -> None:
        self.buffer.unpin(page.page_id, dirty)

    def note_partition_pages(self, partition_id: int, pages: int) -> None:
        self.partition_page_requests[partition_id] = (
            self.partition_page_requests.get(partition_id, 0) + pages
        )

    # -- record access layer -----------------------------------------------

    def find_partition(self, table: str, key: typing.Any) -> "Partition":
        """The local partition whose tree covers ``key``."""
        for partition in self.partitions_for_table(table):
            if partition.tree.find(key) is not None:
                return partition
        raise RecordNotHereError(
            f"node {self.node_id}: no local partition of {table!r} covers {key!r}"
        )

    def _resolve_segment(self, partition: "Partition", key: typing.Any) -> Segment:
        target = partition.segment_for(key)
        if target is None:
            raise RecordNotHereError(
                f"node {self.node_id}: no segment covers {key!r}"
            )
        if isinstance(target, Forwarding):
            raise SegmentMovedError(target.segment_id, target.target_node_id)
        return target

    def serve_replica_read(self):
        """Generator: answer one point read from a replica's row state
        hosted on this node (an index probe into the in-memory map —
        no data disk touched, which is the read tier's whole case)."""
        yield from self.cpu.execute(specs.CPU_INDEX_SECONDS_PER_OP)
        self.replica_reads_served += 1

    def serve_replica_range(self, entries: int):
        """Generator: answer a range read of ``entries`` rows from a
        replica's row state hosted on this node."""
        yield from self.cpu.execute(
            max(entries, 1) * specs.CPU_INDEX_SECONDS_PER_OP
        )
        self.replica_reads_served += 1

    def read_record(self, partition: "Partition", key: typing.Any,
                    txn: Transaction):
        """Generator: point read; returns the row tuple or None."""
        segment = self._resolve_segment(partition, key)
        if txn.cc == "locking":
            yield from self.txns.locks.lock_record(
                txn.txn_id, partition.table.name, partition.partition_id,
                key, LockMode.S, txn.breakdown,
            )
        t0 = self.env.now
        yield from self.cpu.execute(specs.CPU_INDEX_SECONDS_PER_OP)
        result = None
        found = None
        pinned: list[int] = []
        try:
            for page_no, _slot, version in segment.versions_for(key):
                page = segment.pages[page_no]
                if page.page_id not in pinned:
                    yield from self.fetch_page(page, txn.breakdown)
                    pinned.append(page.page_id)
                if self._version_readable(version, txn):
                    result = version.values
                    found = version
                    break
        finally:
            for page_id in pinned:
                self.buffer.unpin(page_id)
        self.note_partition_pages(partition.partition_id, len(pinned))
        history = self.txns.history
        if history is not None and found is not None:
            # Misses are recorded by the router once every candidate
            # node has been tried (a per-node miss is normal mid-move).
            history.record_read(txn, partition.table.name, key, found,
                                t0, self.env.now)
        return result

    def read_range(self, partition: "Partition", lo: typing.Any,
                   hi: typing.Any, txn: Transaction,
                   limit: int | None = None):
        """Generator: key-ordered range read ``[lo, hi)`` with segment
        pruning; returns the row list."""
        key_range = KeyRange(lo, hi)
        if txn.cc == "locking":
            # Range reads take a partition-level S lock (simple range
            # protection under MGL).
            yield from self.txns.locks.lock_partition(
                txn.txn_id, partition.table.name, partition.partition_id,
                LockMode.S, txn.breakdown,
            )
        rows: list[tuple] = []
        pages_touched = 0
        for target in partition.tree.find_range(key_range):
            if target is None:
                continue
            if isinstance(target, Forwarding):
                # Moved segments are read on their new node — the master
                # visits every candidate during a move and merges.
                continue
            yield from self.cpu.execute(specs.CPU_INDEX_SECONDS_PER_OP)
            for _key, chain in target.index_scan(lo=lo, hi=hi):
                pinned: list[int] = []
                try:
                    for page_no, slot, version in (
                        (pno, s, target.pages[pno].get(s)) for pno, s in chain
                    ):
                        page = target.pages[page_no]
                        if page.page_id not in pinned:
                            yield from self.fetch_page(page, txn.breakdown)
                            pinned.append(page.page_id)
                            pages_touched += 1
                        if self._version_readable(version, txn):
                            rows.append(version.values)
                            break
                finally:
                    for page_id in pinned:
                        self.buffer.unpin(page_id)
                if limit is not None and len(rows) >= limit:
                    break
            if limit is not None and len(rows) >= limit:
                break
        self.note_partition_pages(partition.partition_id, pages_touched)
        rows.sort(key=partition.schema.key_of)
        return rows if limit is None else rows[:limit]

    @staticmethod
    def _version_readable(version: RecordVersion, txn: Transaction) -> bool:
        if txn.cc == "mvcc":
            return mvcc.is_visible(version, txn)
        # Locking: read the newest committed version (plus own writes).
        # Uncommitted delete-marks from the migration's system
        # transactions stay invisible — "old copies of the records
        # still remain until the movement is finished" (Sect. 3.5).
        created_ok = (
            version.created_ts is not None or version.created_by == txn.txn_id
        )
        deleted = (
            version.deleted_by == txn.txn_id or version.deleted_ts is not None
        )
        return created_ok and not deleted

    def insert_record(self, partition: "Partition", values: typing.Sequence,
                      txn: Transaction):
        """Generator: transactional insert; returns the record key."""
        txn.require_writable()
        schema = partition.schema
        version = RecordVersion.make(schema, values, txn.txn_id)
        t0 = self.env.now
        yield from self._announce_write(partition, txn)
        target = partition.ensure_segment_for(version.key)
        if isinstance(target, Forwarding):
            raise SegmentMovedError(target.segment_id, target.target_node_id)
        self.ensure_hosted(target)
        if txn.cc == "locking":
            yield from self.txns.locks.lock_record(
                txn.txn_id, partition.table.name, partition.partition_id,
                version.key, LockMode.X, txn.breakdown,
            )
        yield from self.cpu.execute(specs.CPU_INDEX_SECONDS_PER_OP)
        target, location = partition.place(self, target, version,
                                           mvcc.insert, txn)
        yield from self._dirty_page(target, location[0], txn)
        yield from self._maintain_secondary(partition, version.values)
        self._log_write(txn, "insert", partition, version)
        self.note_partition_pages(partition.partition_id, 1)
        history = self.txns.history
        if history is not None:
            history.record_write(txn, "insert", partition.table.name,
                                 version.key, version.values, None,
                                 t0, self.env.now)
        return version.key

    def update_record(self, partition: "Partition", key: typing.Any,
                      values: typing.Sequence, txn: Transaction):
        """Generator: transactional update (new version chained)."""
        txn.require_writable()
        t0 = self.env.now
        yield from self._announce_write(partition, txn)
        segment = self._resolve_segment(partition, key)
        if txn.cc == "locking":
            yield from self.txns.locks.lock_record(
                txn.txn_id, partition.table.name, partition.partition_id,
                key, LockMode.X, txn.breakdown,
            )
        yield from self.cpu.execute(specs.CPU_INDEX_SECONDS_PER_OP)
        version = RecordVersion.make(partition.schema, values, txn.txn_id)
        if version.key != key:
            raise ValueError(
                f"update may not change the primary key ({key!r} -> {version.key!r})"
            )
        history = self.txns.history
        prev = (mvcc.visible_version(segment, key, txn)
                if history is not None else None)
        location = mvcc.update(segment, key, version, txn)
        yield from self._dirty_page(segment, location[0], txn)
        yield from self._maintain_secondary(partition, version.values)
        self._log_write(txn, "update", partition, version)
        if history is not None:
            history.record_write(txn, "update", partition.table.name, key,
                                 version.values, prev, t0, self.env.now)
        if txn.cc == "locking":
            # In-place updates must log the before-image for UNDO;
            # under MVCC the superseded version itself serves that role.
            self.wal.append(
                txn.txn_id, "undo", (partition.table.name, key),
                nbytes=version.size_bytes,
            )
        self.note_partition_pages(partition.partition_id, 1)

    def delete_record(self, partition: "Partition", key: typing.Any,
                      txn: Transaction):
        """Generator: transactional delete (delete-mark)."""
        txn.require_writable()
        t0 = self.env.now
        yield from self._announce_write(partition, txn)
        segment = self._resolve_segment(partition, key)
        if txn.cc == "locking":
            yield from self.txns.locks.lock_record(
                txn.txn_id, partition.table.name, partition.partition_id,
                key, LockMode.X, txn.breakdown,
            )
        yield from self.cpu.execute(specs.CPU_INDEX_SECONDS_PER_OP)
        history = self.txns.history
        prev = mvcc.delete(segment, key, txn)
        chain = segment.index.get(key)
        if chain:
            yield from self._dirty_page(segment, chain[0][0], txn)
        self._log_write(txn, "delete", partition, key_only=key)
        self.note_partition_pages(partition.partition_id, 1)
        if history is not None:
            history.record_write(txn, "delete", partition.table.name, key,
                                 None, prev, t0, self.env.now)

    def _maintain_secondary(self, partition: "Partition",
                            values: typing.Sequence):
        """Update the partition's secondary indexes (a step)."""
        if not partition.secondary_indexes:
            return DONE
        partition.index_row(values)
        return self.cpu.execute(
            len(partition.secondary_indexes) * specs.CPU_INDEX_SECONDS_PER_OP,
        )

    def read_by_secondary(self, partition: "Partition", index_name: str,
                          secondary_key: typing.Any, txn: Transaction):
        """Generator: fetch the visible rows matching ``secondary_key``.

        Candidates from the index are re-read through the primary path;
        stale entries (deleted rows, rows whose indexed column changed)
        are filtered out.
        """
        index = partition.secondary_indexes.get(index_name)
        if index is None:
            raise KeyError(
                f"partition {partition.partition_id} has no index "
                f"{index_name!r}"
            )
        yield from self.cpu.execute(specs.CPU_INDEX_SECONDS_PER_OP)
        rows = []
        wanted = secondary_key if isinstance(secondary_key, tuple) \
            else (secondary_key,)
        for pk in index.candidates(secondary_key):
            row = yield from self.read_record(partition, pk, txn)
            if row is None:
                continue
            if index.secondary_key_of(row) == wanted:
                rows.append(row)
        return rows

    def _announce_write(self, partition: "Partition", txn: Transaction):
        """Partition-granule write intent (IX), under either CC scheme
        (a step: :meth:`LockManager.lock_partition`), asked for once
        per (transaction, partition): ``DONE`` for a partition already
        in ``txn.announced``, which a granted intent joins.  A wait
        that times out raises and leaves the partition out.

        The repartitioning protocol depends on it: the mover's
        partition read lock "wait[s] for pre-existing queries to finish
        updating the partition.  Updating transactions need to commit
        before the lock is granted" (Sect. 4.3) — which requires even
        MVCC writers to announce themselves at the partition granule.
        """
        partition_id = partition.partition_id
        announced = txn.announced
        if partition_id in announced:
            return DONE
        return after(
            self.txns.locks.lock_partition(
                txn.txn_id, partition.table.name, partition_id,
                LockMode.IX, txn.breakdown,
            ),
            announced.add, partition_id,
        )

    def _dirty_page(self, segment: Segment, page_no: int, txn: Transaction):
        """Fetch a page and unpin it dirty (a step)."""
        page = segment.pages[page_no]
        return after(self.fetch_page(page, txn.breakdown), self.unpin_page,
                     page, True)

    def _log_write(self, txn: Transaction, kind: str, partition: "Partition",
                   version: RecordVersion | None = None,
                   key_only: typing.Any = None) -> None:
        if version is not None:
            payload = (partition.table.name, version.key, version.values)
            nbytes = version.size_bytes + LOG_RECORD_HEADER_BYTES
            row_crc = version.checksum
        else:
            payload = (partition.table.name, key_only)
            nbytes = 64
            row_crc = None
        txn.note_log(self.wal)
        self.wal.append(txn.txn_id, kind, payload, nbytes, row_crc=row_crc)
        txn.redo.append((partition.partition_id, self.wal.tail))

    # -- bulk segment I/O (used by the migration engine) ----------------------

    def write_segment(self, segment: Segment):
        """Generator: sequential write of a whole segment extent."""
        disk = self.disk_space.disk_of(segment.segment_id)
        nbytes = max(segment.used_bytes, specs.PAGE_BYTES)
        yield from disk.write(nbytes, sequential=False)
