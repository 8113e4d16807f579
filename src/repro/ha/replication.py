"""Synchronous segment replication by WAL shipping.

Each protected partition has a replica set of k-1 holders on distinct
nodes (see :mod:`repro.ha.placement`).  A replica is physically a
per-partition log on the holder's log disk: seeding writes the
partition's committed rows as a pseudo-committed base image, and every
later commit ships the partition's log tail over the network and
forces it on each holder before the commit is acknowledged — the
synchronous-redundancy discipline that lets failover replay a replica
log through the ordinary REDO path (:mod:`repro.txn.recovery`) and
lose nothing that was acknowledged.

Where it sits on the commit path (:mod:`repro.txn.manager`):

* The access layer appends every data log record to the writing
  transaction's own ``redo`` list, keyed by partition.
* :meth:`ReplicationManager.ship_commit` is a commit stage: after the
  local log force and before the commit returns it is handed that list,
  keeps the records whose partition has a replica set *now*, and forces
  them on every live holder.  Deciding at commit time means a write
  logged before its partition was protected is shipped all the same.
* ``_retract_shipped`` is an abort stage: a crash-abort that races a
  ship in flight takes the commit marker back off every replica that
  already holds it.

A holder that cannot be reached (crashed, severed NIC, dead log disk)
marks its replica *stale* rather than failing the commit: the commit
is already locally durable, availability degrades to the remaining
replicas, and re-replication restores the factor later.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

from repro.hardware.disk import DiskFailedError
from repro.hardware.network import LinkDownError
from repro.ha.placement import PlacementPolicy
from repro.storage.checksum import IntegrityError
from repro.txn.checkpoint import iter_committed_rows
from repro.txn.manager import TxnState
from repro.txn.wal import LOG_BLOCK_BYTES, LOG_RECORD_HEADER_BYTES, LogManager

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.catalog import Partition
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode
    from repro.txn.manager import Transaction
    from repro.txn.wal import LogRecord

#: Pseudo transaction id for a replica's seeded base image (committed
#: by construction; distinct from recovery's REDO_TXN_ID = -1).
REPLICA_BASE_TXN_ID = -2


@dataclasses.dataclass
class SegmentReplica:
    """One replica of one partition: a log on the holder's log disk."""

    holder_node_id: int
    log: LogManager
    created_at: float
    #: Missed at least one shipment (holder was unreachable); a stale
    #: replica must never be promoted and is dropped by re-replication.
    stale: bool = False
    #: Still receiving its base image.  The replica is registered in
    #: its set *before* the image crosses the wire so that commits
    #: landing mid-seed ship to it like any other — otherwise every
    #: commit inside the seeding window would be missing from the
    #: replica forever while later shipments advance the replay
    #: horizon straight past the gap.  Until the flag clears the
    #: replica is neither promotable nor readable.
    seeding: bool = False
    bytes_shipped: int = 0
    #: Highest *primary-WAL* LSN this replica has durably acknowledged
    #: (seeding covers everything committed before it; each shipped
    #: commit advances it).  The checkpoint manager's recycling horizon
    #: never passes an un-acked record.
    acked_lsn: int = 0
    #: Highest commit timestamp folded into :attr:`rows` — the replica's
    #: replay horizon.  A snapshot read at ``begin_ts <= replay_horizon``
    #: (and below the transaction manager's safe read horizon) sees
    #: exactly the committed state the primary would have served.
    replay_horizon: int = 0
    #: Materialized row state, maintained incrementally at ship time so
    #: snapshot reads never replay the log: key -> ``(values,
    #: writer_txn, commit_ts)``; deletes keep a tombstone (``values`` is
    #: None) so an old-snapshot read bounces to the primary instead of
    #: reporting a false miss.
    rows: dict = dataclasses.field(default_factory=dict)
    #: The keys of :attr:`rows`, sorted, so a range read bisects its
    #: bounds instead of walking the map.  Both change only through
    #: :meth:`put_row` and :meth:`drop_row`.
    sorted_keys: list = dataclasses.field(default_factory=list)
    #: Timestamp the base image was seeded at.  Keys deleted *before*
    #: seeding are simply absent from :attr:`rows`, so a snapshot older
    #: than the seed cannot distinguish "never existed" from "deleted
    #: after my snapshot" — such reads bounce to the primary.
    base_ts: int = 0
    #: Snapshot reads this replica served (read-scaling accounting).
    reads_served: int = 0

    def is_live(self, cluster: "Cluster") -> bool:
        """Promotable and readable: not stale, not seeding, and its
        holder serving."""
        return not self.stale and not self.seeding \
            and cluster.worker(self.holder_node_id).is_serving

    def put_row(self, key, entry) -> None:
        """Set ``key``'s row-state entry, entering a new key in
        :attr:`sorted_keys`."""
        rows = self.rows
        if key not in rows:
            bisect.insort(self.sorted_keys, key)
        rows[key] = entry

    def drop_row(self, key) -> None:
        """Forget ``key`` (a retracted insert), if the map holds it."""
        if self.rows.pop(key, None) is not None:
            keys = self.sorted_keys
            del keys[bisect.bisect_left(keys, key)]


class ReplicaSet:
    """All replicas of one partition, tracked in the master's catalog."""

    def __init__(self, partition_id: int, table: str, primary_node_id: int):
        self.partition_id = partition_id
        self.table = table
        self.primary_node_id = primary_node_id
        self.replicas: list[SegmentReplica] = []

    def live_replicas(self, cluster: "Cluster") -> list[SegmentReplica]:
        return [r for r in self.replicas if r.is_live(cluster)]

    def best_replica(self, cluster: "Cluster") -> SegmentReplica | None:
        """The promotion candidate: any live replica (they are all
        synchronously identical), lowest holder id for determinism."""
        live = self.live_replicas(cluster)
        if not live:
            return None
        return min(live, key=lambda r: r.holder_node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        holders = [r.holder_node_id for r in self.replicas]
        return (
            f"<ReplicaSet p{self.partition_id} primary={self.primary_node_id} "
            f"holders={holders}>"
        )


def fold_committed_rows(log: LogManager) -> dict:
    """The committed ``{key: (values, nbytes)}`` state of a replica
    log: its redo scan (commit marker and no superseding abort record)
    replayed in log order.  Callers verify checksums first; the auditor
    keeps its own independent replay as the reference."""
    rows: dict = {}
    for record in log.committed_ops_since():
        if record.kind == "delete":
            rows.pop(record.payload[1], None)
        else:
            _table, key, values = record.payload
            rows[key] = (values, record.nbytes)
    return rows


class ReplicationManager:
    """Keeps every protected partition at replication factor ``k``."""

    def __init__(self, cluster: "Cluster", k: int = 2,
                 policy: PlacementPolicy | None = None):
        if k < 1:
            raise ValueError("replication factor must be >= 1")
        self.cluster = cluster
        self.env = cluster.env
        self.k = k
        self.policy = policy or PlacementPolicy(cluster)
        #: txn_id -> [(replica, row-undo)] for replicas that already hold
        #: this transaction's flushed commit marker while ``ship_commit``
        #: is still in flight to the rest.  A crash-abort arriving in
        #: that window must retract the marker (append an abort record,
        #: restore the row map), or promotion would replay a transaction
        #: the primary rolled back — the aborted client retries, and the
        #: retry then double-applies on the promoted copy.
        self._shipped_inflight: dict[
            int, list[tuple[SegmentReplica, dict]]] = {}
        self.commits_shipped = 0
        self.records_shipped = 0
        self.bytes_shipped = 0
        self.ship_failures = 0
        #: Commit markers retracted from replica logs by a crash-abort
        #: that raced ``ship_commit``.
        self.commits_retracted = 0
        #: Corrupt records caught at a trust boundary (shipment or
        #: replica-log compaction) instead of propagating to a replica.
        self.integrity_failures = 0
        #: Nodes to keep new replicas off (quarantined / draining
        #: limping nodes; maintained by the failover coordinator).
        self.avoid_nodes: set[int] = set()
        cluster.txns.commit_stages.append(self.ship_commit)
        cluster.txns.abort_stages.append(self._retract_shipped)

    @property
    def catalog(self):
        return self.cluster.catalog

    # -- abort stage ---------------------------------------------------------

    def _retract_shipped(self, txn: "Transaction") -> None:
        # Crash-abort raced a mid-flight ship: some replicas already
        # flushed this transaction's commit marker.  Mirror the local
        # WAL rule — the abort supersedes the commit — on every copy
        # that has the marker, and unwind the folded row state, so a
        # later promotion cannot resurrect the rolled-back transaction.
        for replica, undo in self._shipped_inflight.pop(txn.txn_id, ()):
            replica.log.append(txn.txn_id, "abort")
            for key, prev in undo.items():
                if prev is None:
                    replica.drop_row(key)
                else:
                    replica.put_row(key, prev)
            self.commits_retracted += 1

    # -- commit stage: shipping ----------------------------------------------

    def ship_commit(self, txn: "Transaction", redo):
        """Generator: force the transaction's redo records on every
        live replica holder of every protected partition it wrote.

        Unreachable holders degrade to ``stale`` instead of failing
        the commit — the write is already durable on the primary.
        """
        t0 = self.env.now
        groups: dict[int, list["LogRecord"]] = {}
        for partition_id, record in redo:
            if self.catalog.replica_set_for(partition_id) is None:
                continue
            # Never ship bytes that already fail their checksum: a
            # corrupt record must not propagate to healthy replicas,
            # and a commit whose log records are garbage must not be
            # acknowledged.
            try:
                record.verify(where="replica-ship")
            except IntegrityError:
                self.integrity_failures += 1
                raise
            groups.setdefault(partition_id, []).append(record)
        if not groups:
            return
        for partition_id, records in groups.items():
            replica_set = self.catalog.replica_set_for(partition_id)
            if replica_set is None:
                continue
            primary = self.cluster.worker(replica_set.primary_node_id)
            payload_bytes = (
                sum(r.nbytes for r in records) + LOG_RECORD_HEADER_BYTES
            )
            for replica in replica_set.replicas:
                # A crash-abort may land while this generator is parked
                # on any of the yields below; once the transaction is no
                # longer active, stop shipping — replicas that already
                # hold the marker were retracted by ``_retract_shipped``.
                if txn.state is not TxnState.ACTIVE:
                    return
                holder = self.cluster.worker(replica.holder_node_id)
                if replica.stale:
                    continue
                if not holder.is_serving:
                    replica.stale = True
                    self.ship_failures += 1
                    continue
                try:
                    yield from self.cluster.network.transfer(
                        primary.port, holder.port, payload_bytes
                    )
                except LinkDownError:
                    replica.stale = True
                    self.ship_failures += 1
                    continue
                if txn.state is not TxnState.ACTIVE:
                    # Aborted while the bytes were in flight: the marker
                    # was never appended here, so there is nothing to
                    # retract — just stop.
                    return
                if not holder.is_serving:
                    # Crashed while the bytes were in flight.
                    replica.stale = True
                    self.ship_failures += 1
                    continue
                # Verified above: each record's row CRC still matches
                # its payload, so the replica's record chains it.
                for record in records:
                    replica.log.append(
                        record.txn_id, record.kind, record.payload,
                        record.nbytes, row_crc=record.row_crc,
                    )
                lsn = replica.log.append(txn.txn_id, "commit")
                try:
                    yield from replica.log.flush(lsn)
                except DiskFailedError:
                    replica.stale = True
                    self.ship_failures += 1
                    continue
                if txn.state is not TxnState.ACTIVE:
                    # Aborted during the marker flush — after the append
                    # but before this replica was registered in
                    # ``_shipped_inflight``, so ``_retract_shipped``
                    # could not see it.  Retract here: the abort record
                    # supersedes the marker in the replay scan, and the
                    # row map was never folded.
                    replica.log.append(txn.txn_id, "abort")
                    self.commits_retracted += 1
                    return
                replica.bytes_shipped += payload_bytes
                replica.acked_lsn = max(replica.acked_lsn,
                                        records[-1].lsn)
                undo = self._apply_to_rows(replica, records, txn)
                # The marker is flushed but the commit as a whole is
                # still in flight (more replicas / partitions to ship):
                # remember the copy so a crash-abort landing in one of
                # the later yields can retract what this one holds.
                self._shipped_inflight.setdefault(
                    txn.txn_id, []).append((replica, undo))
                self.records_shipped += len(records)
                self.bytes_shipped += payload_bytes
            self.commits_shipped += 1
        self._shipped_inflight.pop(txn.txn_id, None)
        if txn.breakdown is not None:
            txn.breakdown.add("replication", self.env.now - t0)

    @staticmethod
    def _apply_to_rows(replica: SegmentReplica, records, txn) -> dict:
        """Fold one shipped commit into the replica's materialized row
        state.  The records passed checksum verification before the
        wire, so the map stays trustworthy even when the on-disk
        replica log later rots (the scrub daemon handles that copy).

        Returns the pre-image of every touched key (``None`` for keys
        the replica had never seen) so a crash-abort racing the rest of
        the ship can restore the map."""
        commit_ts = txn.commit_ts
        undo: dict = {}
        for record in records:
            if record.kind in ("insert", "update"):
                _table, key, values = record.payload
                undo.setdefault(key, replica.rows.get(key))
                replica.put_row(key, (tuple(values), record.txn_id, commit_ts))
            elif record.kind == "delete":
                _table, key = record.payload
                undo.setdefault(key, replica.rows.get(key))
                replica.put_row(key, (None, record.txn_id, commit_ts))
        if commit_ts is not None:
            replica.replay_horizon = max(replica.replay_horizon, commit_ts)
        return undo

    # -- recycling horizon ---------------------------------------------------

    def acked_horizon(self, node_id: int) -> int | None:
        """Lowest primary-WAL LSN on ``node_id`` that a replica of one
        of its partitions has *not* yet acknowledged, or ``None`` when
        nothing is in flight (shipping is synchronous, so a live
        replica is only ever behind by the redo that active transactions
        still carry — commit takes it off them when shipping starts).
        WAL records below the returned LSN are safe to recycle as far
        as replication is concerned."""
        pin: int | None = None
        # partition id -> "protected, with its primary on node_id":
        # one replica-set lookup per partition, not one per record.
        pinning: dict[int, bool] = {}
        for txn in self.cluster.txns.iter_active():
            for partition_id, record in txn.redo:
                pins = pinning.get(partition_id)
                if pins is None:
                    replica_set = self.catalog.replica_set_for(partition_id)
                    pins = pinning[partition_id] = (
                        replica_set is not None
                        and replica_set.primary_node_id == node_id
                        and bool(replica_set.replicas))
                if pins and (pin is None or record.lsn < pin):
                    pin = record.lsn
        return pin

    def replication_lag(self, node_id: int) -> int:
        """How far the replicas of ``node_id``'s partitions trail its
        primary WAL, in LSNs: the span between the oldest un-acked
        record and the WAL tail (0 when nothing is in flight).  The
        read tier enforces its staleness budget against this — a
        replica read is only served while the lag is within budget."""
        pin = self.acked_horizon(node_id)
        if pin is None:
            return 0
        return max(self.cluster.worker(node_id).wal._next_lsn - pin, 0)

    # -- replica-log compaction ----------------------------------------------

    def compact_replica(self, replica: SegmentReplica, table: str):
        """Generator: rewrite a replica's log as a fresh base image
        plus nothing — the bounded-promotion-replay counterpart of WAL
        recycling on the primary.

        The fold (committed state out of the old records) and the
        rewrite are synchronous, so they are atomic with respect to
        concurrent shipments; only the holder's disk I/O takes
        simulated time.  Returns True when the log was compacted.
        """
        holder = self.cluster.worker(replica.holder_node_id)
        if replica.stale or not holder.is_serving:
            return False
        log = replica.log
        old_bytes = max(log.live_bytes, LOG_BLOCK_BYTES)
        try:
            yield from holder.log_disk.read(old_bytes, sequential=True)
        except DiskFailedError:
            replica.stale = True
            self.ship_failures += 1
            return False
        try:
            log.verify_all(where="replica-compact")
        except IntegrityError:
            # A rotten replica log must not be folded into a "clean"
            # base image; drop the replica and let re-replication
            # rebuild it from the primary.
            replica.stale = True
            self.integrity_failures += 1
            return False
        rows = fold_committed_rows(log)
        first_new = log._next_lsn + 1
        for key, (values, nbytes) in rows.items():
            log.append(REPLICA_BASE_TXN_ID, "insert", (table, key, values),
                       nbytes=nbytes)
        lsn = log.append(REPLICA_BASE_TXN_ID, "commit")
        log.truncate_before(first_new)
        try:
            yield from log.flush(lsn)
        except DiskFailedError:
            replica.stale = True
            self.ship_failures += 1
            return False
        return True

    # -- protection / re-replication ----------------------------------------

    def protect_all(self):
        """Generator: bring every partition in the cluster up to k."""
        for worker in self.cluster.workers:
            for partition in list(worker.partitions.values()):
                yield from self.protect_partition(partition)

    def protect_partition(self, partition: "Partition"):
        """Generator: ensure ``partition`` has k-1 live replicas,
        seeding new ones where needed.  Also serves as re-replication:
        dead and stale replicas are pruned first, then the set is
        topped back up.  Returns the replica set."""
        replica_set = self.catalog.replica_set_for(partition.partition_id)
        if replica_set is None:
            replica_set = ReplicaSet(
                partition.partition_id, partition.table.name,
                partition.node_id,
            )
            self.catalog.register_replica_set(replica_set)
        else:
            replica_set.primary_node_id = partition.node_id
        self._prune(replica_set)
        need = (self.k - 1) - len(replica_set.replicas)
        if need > 0:
            exclude = {r.holder_node_id for r in replica_set.replicas}
            exclude |= self.avoid_nodes
            holders = self.policy.choose_holders(
                partition.node_id, need, exclude
            )
            for holder in holders:
                yield from self._seed_replica(replica_set, partition, holder)
        return replica_set

    def _prune(self, replica_set: ReplicaSet) -> None:
        replica_set.replicas = [
            r for r in replica_set.replicas
            if not r.stale and self.cluster.worker(r.holder_node_id).is_serving
        ]

    def _seed_replica(self, replica_set: ReplicaSet, partition: "Partition",
                      holder: "WorkerNode"):
        """Generator: build a fresh replica on ``holder`` from the
        partition's current committed rows.

        The base image is written as pseudo-committed insert records so
        promotion replays it with the exact same REDO machinery as the
        shipped tail.  Costs: a sequential read of the partition on
        the owner, the wire transfer, and a forced sequential write of
        the holder's log disk.
        """
        owner = self.cluster.worker(partition.node_id)
        log = LogManager(
            self.env, holder.log_disk,
            name=f"replica.p{partition.partition_id}@n{holder.node_id}",
        )
        seed_ts = self.cluster.txns.oracle.current
        replica = SegmentReplica(holder.node_id, log, self.env.now,
                                 seeding=True)
        rows: dict = {}
        for version in iter_committed_rows(partition):
            key, values = version.key, tuple(version.values)
            log.append(
                REPLICA_BASE_TXN_ID, "insert",
                (replica_set.table, key, values),
                nbytes=version.size_bytes + LOG_RECORD_HEADER_BYTES,
                row_crc=version.checksum,
            )
            # The base image is a committed snapshot as of ``seed_ts``:
            # a conservative version stamp (reads below it bounce to
            # the primary rather than risk staleness).
            rows[key] = (values, REPLICA_BASE_TXN_ID, seed_ts)
        lsn = log.append(REPLICA_BASE_TXN_ID, "commit")
        # The base image reflects every row committed on the owner so
        # far; in-flight transactions stay pinned by their ``redo``.
        replica.acked_lsn = owner.wal._next_lsn
        # In key order, so each new key lands at the end of the list.
        for key in sorted(rows):
            replica.put_row(key, rows[key])
        replica.replay_horizon = seed_ts
        replica.base_ts = seed_ts
        # Register *before* the transfer: the scan above is atomic
        # (no yields since ``seed_ts``), so every commit that lands
        # while the image is on the wire ships to this replica like
        # any other, appending behind the base records it belongs
        # after.  Promotion and snapshot reads stay fenced off by
        # ``seeding`` until the image is durable on the holder.
        replica_set.replicas.append(replica)
        data_bytes = max(partition.used_bytes, LOG_BLOCK_BYTES)
        try:
            yield from owner.disk_space.disks[0].read(
                data_bytes, sequential=True
            )
            yield from self.cluster.network.transfer(
                owner.port, holder.port, data_bytes
            )
            yield from log.flush(lsn)
        except BaseException:
            replica.stale = True
            if replica in replica_set.replicas:
                replica_set.replicas.remove(replica)
            raise
        replica.seeding = False
        replica.bytes_shipped += data_bytes
        self.bytes_shipped += data_bytes
        return replica
