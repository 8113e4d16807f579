"""Failure detection and replica promotion.

The master already collects heartbeats as a side effect of monitoring
(Sect. 3.4): every successful ``ClusterMonitor`` sample stamps the
node's entry in ``monitor.heartbeats``.  The :class:`FailureDetector`
polls that map; a node whose heartbeat is older than
``miss_threshold`` monitoring intervals is declared failed and handed
to the :class:`FailoverCoordinator`, which

1. aborts in-flight transactions that touched the dead node (so their
   locks release — usually already done by the fault injector),
2. promotes a replica for every partition the node owned: the replica
   log is replayed through the ordinary REDO path
   (:func:`repro.txn.recovery.recover_worker_table`) into a partition
   shell carrying the *same* partition id, and the global partition
   table is repointed at the new owner,
3. marks partitions with no live replica unavailable (replication
   factor 1) — clients fail fast and exhaust their bounded retries
   cleanly instead of hanging,
4. re-replicates until every surviving partition is back at factor k.

When a failed node's heartbeats resume (restart, link repaired), the
coordinator restores its unavailable partitions and refreshes the now
stale replicas it held.
"""

from __future__ import annotations

import typing

from repro.core.migration import (
    release_source,
    rollback_range_registration,
)
from repro.moves import ABORTED, FAILED
from repro.moves.journal import RangeMoveEntry
from repro.storage.checksum import IntegrityError
from repro.txn.recovery import integrity_scan, recover_worker_table
from repro.txn.wal import LOG_BLOCK_BYTES

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.ha.replication import ReplicaSet, ReplicationManager, SegmentReplica
    from repro.index.global_table import PartitionLocation
    from repro.index.partition_tree import KeyRange


class FailoverCoordinator:
    """Master-side recovery driver; every step is a ``failover`` event
    on the cluster's timeline (``node_failed``, ``promoted``,
    ``partition_unavailable``, ``node_restored``, ...)."""

    def __init__(self, cluster: "Cluster",
                 replication: "ReplicationManager | None" = None):
        self.cluster = cluster
        self.env = cluster.env
        self.replication = replication
        self.failed_nodes: set[int] = set()
        #: ``(table, partition_id)`` pairs currently without a live copy.
        self.unavailable: list[tuple[str, int]] = []
        #: One dict per promotion: partition, nodes, replayed records,
        #: and how long the takeover took in sim seconds.
        self.promotions: list[dict] = []
        #: One dict per handled node failure.
        self.recoveries: list[dict] = []
        #: One dict per limping-node drain (gray-failure handling).
        self.drains: list[dict] = []
        #: Promotions that fell back to another replica because the
        #: preferred one failed its checksums mid-replay.
        self.integrity_fallbacks = 0
        #: Partitions fenced (marked unavailable) because no healthy
        #: copy existed — by failover or by the scrub daemon.
        self.fenced = 0
        #: Torn WAL-tail records discarded during restart recovery.
        self.torn_discarded = 0

    @property
    def master(self):
        return self.cluster.master

    @property
    def catalog(self):
        return self.cluster.catalog

    def _note(self, kind: str, node_id: int,
              partition_id: int | None = None, detail: str = "") -> None:
        self.cluster.note("failover", kind, node_id, partition_id, detail)

    # -- failure handling ----------------------------------------------------

    def node_failed(self, node_id: int):
        """Generator: take over everything the dead node owned."""
        if node_id in self.failed_nodes:
            return
        self.failed_nodes.add(node_id)
        detected_at = self.env.now
        self._note("node_failed", node_id)
        dead = self.cluster.worker(node_id)

        # Locks of in-flight transactions on the dead node must not
        # strand survivors; usually the injector already did this.
        self.cluster.txns.abort_touching(dead)

        # Journal replay first: roll half-copied segment moves back and
        # resolve interrupted range moves, so the promotion loop below
        # sees clean (or at least collapsed) locations.
        self._replay_move_journal(node_id)

        promoted = 0
        lost = 0
        for table, key_range, location in self.master.gpt.locations_on(node_id):
            if location.is_moving:
                # Fallback for movers that do not journal (record-level
                # schemes): collapse onto the surviving end, as before.
                if self._collapse_dual_pointer(table, location, node_id):
                    continue
            if location.node_id != node_id:
                continue
            replica_set = self.catalog.replica_set_for(location.partition_id)
            partition = yield from self._promote_any(
                table, key_range, location, replica_set
            )
            if partition is None:
                self.fence_partition(table, location.partition_id, node_id,
                                     "no live healthy replica")
                lost += 1
                continue
            promoted += 1

        if self.replication is not None:
            yield from self._restore_factor()

        self.recoveries.append({
            "node_id": node_id,
            "detected_at": detected_at,
            "completed_at": self.env.now,
            "seconds": self.env.now - detected_at,
            "promoted": promoted,
            "unavailable": lost,
        })

    # -- move-journal replay -------------------------------------------------

    def _replay_move_journal(self, node_id: int) -> None:
        """Resolve every open move journal entry involving the dead
        node.  Pure metadata — segment rollbacks evict the half-copied
        target extent and close the entry; range moves are either
        rolled back outright (nothing switched: the pre-move world is
        restored, so a replica promotion of the *source* partition can
        proceed normally) or collapsed onto the surviving end (some
        segments already switched).  Every resolution bumps the
        governed partition's ownership epoch, fencing any still-running
        mover process out of its switch."""
        moves = self.cluster.moves
        seg_entries, range_entries = moves.journal.open_moves_involving(node_id)
        for entry in seg_entries:
            # A segment entry can only be open pre-switch (the SWITCH ->
            # DONE step has no yield points), so rollback is always
            # safe: the directory still points at the source extent.
            moves.rollback_segment_entry(
                entry, reason=f"node {node_id} died during {entry.phase}"
            )
            self._note("move_rolled_back", node_id, detail=(
                f"segment {entry.segment_id} at chunk {entry.chunks_acked}"
            ))
        for entry in range_entries:
            self._resolve_range_entry(entry, node_id)

    def _resolve_range_entry(self, entry: RangeMoveEntry,
                             dead_node_id: int) -> None:
        gpt = self.master.gpt
        journal = self.cluster.moves.journal
        if entry.segments_switched == 0:
            # Nothing reached the target yet: a clean rollback restores
            # the exact pre-move registration, whichever end died.
            rollback_range_registration(self.cluster, entry)
            journal.advance_range(
                entry, ABORTED, f"node {dead_node_id} died; rolled back"
            )
            self._note("move_rolled_back", dead_node_id,
                       entry.target_partition_id, "range move rolled back")
            return
        # Partially switched: collapse the dual pointer onto the
        # surviving end.  FAILED (not ABORTED) because data already
        # crossed — unswitched segments on a dead source (or switched
        # segments on a dead target) need the replica machinery.
        if entry.source_node == dead_node_id:
            survivor = entry.target_node
        else:
            survivor = entry.source_node
        if not self.cluster.worker(survivor).is_serving:
            return  # both ends down; a later failover resolves it
        if entry.source_node == dead_node_id:
            gpt.finish_move(entry.table, entry.target_partition_id)
            target_partition = self.cluster.worker(
                entry.target_node
            ).partitions.get(entry.target_partition_id)
            if target_partition is not None:
                # Sole owner now — new key regions may grow here again.
                target_partition.accepts_uncovered = True
            detail = "source died mid-move; collapsed onto target"
        else:
            gpt.abort_move(entry.table, entry.target_partition_id)
            detail = "target died mid-move; source keeps ownership"
        release_source(self.cluster, entry)
        journal.advance_range(entry, FAILED, detail)
        self._note("move_resolved", survivor, entry.target_partition_id,
                   detail)

    def _collapse_dual_pointer(self, table: str,
                               location: "PartitionLocation",
                               dead_node_id: int) -> bool:
        """A non-journaled mover died mid-repartitioning: collapse the
        dual pointer onto the surviving end when that end still serves.
        Returns True when the location is fully handled."""
        if location.node_id == dead_node_id:
            survivor = location.moving_to_node_id
        else:
            survivor = location.node_id
        if not self.cluster.worker(survivor).is_serving:
            return False
        if location.node_id == dead_node_id:
            self.master.gpt.finish_move(table, location.partition_id)
        else:
            self.master.gpt.abort_move(table, location.partition_id)
        self._note("move_resolved", survivor, location.partition_id)
        return True

    def fence_partition(self, table: str, partition_id: int,
                        node_id: int, detail: str = "") -> None:
        """Mark a partition unavailable — no healthy copy exists.
        Clients fail fast (``PartitionUnavailableError``) instead of
        reading corrupt or stale bytes."""
        self.master.gpt.set_available(table, partition_id, False)
        pair = (table, partition_id)
        if pair not in self.unavailable:
            self.unavailable.append(pair)
        self.fenced += 1
        self._note("partition_unavailable", node_id, partition_id, detail)

    def _promote_any(self, table: str, key_range: "KeyRange",
                     location: "PartitionLocation",
                     replica_set: "ReplicaSet | None"):
        """Generator: promote the best replica, falling back past
        replicas whose logs fail their checksums mid-replay.  Returns
        the promoted partition, or ``None`` when no healthy live
        replica exists."""
        while replica_set is not None:
            replica = replica_set.best_replica(self.cluster)
            if replica is None:
                return None
            try:
                partition = yield from self._promote(
                    table, key_range, location, replica_set, replica,
                )
            except IntegrityError:
                # The replica's log is rotten: never promote garbage.
                # Drop it and try the next holder.
                replica.stale = True
                self.integrity_fallbacks += 1
                self._note("replica_corrupt", replica.holder_node_id,
                           location.partition_id,
                           "checksum mismatch during promotion replay")
                continue
            return partition
        return None

    def _promote(self, table: str, key_range: "KeyRange",
                 location: "PartitionLocation", replica_set: "ReplicaSet",
                 replica: "SegmentReplica"):
        """Generator: rebuild the partition from ``replica``'s log on
        its holder and repoint the world at it."""
        t0 = self.env.now
        holder = self.cluster.worker(replica.holder_node_id)
        # ``gpt.reassign`` mutates ``location`` in place; capture the
        # dead owner before it is repointed.
        from_node = location.node_id
        dead = self.cluster.worker(location.node_id)
        old_partition = dead.partitions.get(location.partition_id)

        # Sequential scan of the replica log on the holder's log disk.
        # ``live_bytes`` is maintained by the log manager, so promotion
        # cost is bounded by the compacted log, not the log's history.
        log_bytes = max(replica.log.live_bytes, LOG_BLOCK_BYTES)
        yield from holder.log_disk.read(log_bytes, sequential=True)

        partition = self.catalog.rebuild_partition(
            location.partition_id, table, holder.node_id
        )
        partition.bounds = key_range
        report = recover_worker_table(
            replica.log, partition, table, from_checkpoint=False
        )
        holder.add_partition(partition)
        for segment in list(partition.segments.values()):
            holder.ensure_hosted(segment)
            yield from holder.write_segment(segment)
        if old_partition is not None:
            for name, index in old_partition.secondary_indexes.items():
                partition.create_secondary_index(name, index.key_columns)
            dead.strip_partition(location.partition_id)

        self.master.gpt.reassign(table, location.partition_id,
                                 holder.node_id)
        replica_set.primary_node_id = holder.node_id
        replica_set.replicas.remove(replica)
        seconds = self.env.now - t0
        self.promotions.append({
            "partition_id": location.partition_id,
            "table": table,
            "from_node": from_node,
            "to_node": holder.node_id,
            "replayed": report.redone_total,
            "losers_discarded": report.losers_discarded,
            "seconds": seconds,
        })
        self._note("promoted", holder.node_id, location.partition_id,
                   f"replayed {report.redone_total} records in {seconds:.3f}s")
        return partition

    def _restore_factor(self):
        """Generator: top every surviving replica set back up to k."""
        for replica_set in list(self.catalog.replica_sets.values()):
            owner = self.cluster.worker(replica_set.primary_node_id)
            if not owner.is_serving:
                continue
            partition = owner.partitions.get(replica_set.partition_id)
            if partition is None:
                continue
            yield from self.replication.protect_partition(partition)

    # -- limping-node drain (gray failures) ----------------------------------

    def drain_node(self, node_id: int):
        """Generator: demote every primary off a limping-but-alive
        node onto its replicas, and migrate the replicas it holds —
        the gray-failure response: the node never crashed, so waiting
        for heartbeat staleness would wait forever while its latency
        poisons every transaction routed through it.

        Each partition is fenced for the instant of its switch (clients
        fail fast and retry through the normal bounded-retry path), so
        no commit can land on the old primary between the replica-log
        snapshot and the repoint.  Partitions with no live healthy
        replica stay where they are — degraded service beats none.
        """
        self._note("drain_started", node_id)
        worker = self.cluster.worker(node_id)
        if self.replication is not None:
            self.replication.avoid_nodes.add(node_id)
        # In-flight transactions on the limping node would hold locks
        # across the switch; abort them (they retry like any failover).
        self.cluster.txns.abort_touching(worker)
        t0 = self.env.now
        demoted = kept = 0
        for table, key_range, location in list(
                self.master.gpt.locations_on(node_id)):
            if location.node_id != node_id or location.is_moving:
                continue
            replica_set = self.catalog.replica_set_for(location.partition_id)
            if replica_set is None \
                    or replica_set.best_replica(self.cluster) is None:
                kept += 1
                continue
            # Fence for the duration of the switch; _promote repoints
            # the location and node_restored-style availability is
            # restored immediately after.
            self.master.gpt.set_available(table, location.partition_id,
                                          False)
            partition = yield from self._promote_any(
                table, key_range, location, replica_set
            )
            self.master.gpt.set_available(table, location.partition_id,
                                          True)
            if partition is None:
                kept += 1
            else:
                demoted += 1
        if self.replication is not None:
            # Replicas the limping node holds should not stay the only
            # safety net behind their partitions; reseed them elsewhere.
            for replica_set in self.catalog.replica_sets_holding_on(node_id):
                for replica in replica_set.replicas:
                    if replica.holder_node_id == node_id:
                        replica.stale = True
            yield from self._restore_factor()
        self.drains.append({
            "node_id": node_id,
            "started_at": t0,
            "seconds": self.env.now - t0,
            "demoted": demoted,
            "kept": kept,
        })
        self._note("drain_finished", node_id,
                   detail=f"{demoted} demoted, {kept} kept")

    def undrain_node(self, node_id: int) -> None:
        """Lift the placement embargo on a node that recovered from
        its gray failure (detector hysteresis cleared it)."""
        if self.replication is not None:
            self.replication.avoid_nodes.discard(node_id)
        self._note("drain_lifted", node_id)

    # -- recovery of a returning node ----------------------------------------

    def _discard_torn_tail(self, worker) -> int:
        """Local restart recovery: scan the node's WAL and physically
        drop a torn tail (records a crash mid-flush half-persisted).
        Nothing in the torn suffix was ever acknowledged."""
        try:
            _records, torn = integrity_scan(worker.wal, 0)
        except IntegrityError:
            # Mid-log corruption is not a torn tail; leave it for the
            # scrub/fence path rather than guessing here.
            return 0
        if torn:
            worker.wal.discard_tail(torn)
            self.torn_discarded += torn
            self._note("torn_tail_discarded", worker.node_id,
                       detail=f"{torn} records")
        return torn

    def node_restored(self, node_id: int):
        """Generator: a failed node's heartbeats resumed — run local
        restart recovery (discarding any torn WAL tail), restore its
        unavailable partitions and refresh the stale replicas it holds."""
        if node_id not in self.failed_nodes:
            return
        self.failed_nodes.discard(node_id)
        self._note("node_restored", node_id)
        worker = self.cluster.worker(node_id)
        self._discard_torn_tail(worker)
        for table, _key_range, location in self.master.gpt.locations_on(node_id):
            if (location.node_id == node_id and not location.available
                    and location.partition_id in worker.partitions):
                self.master.gpt.set_available(table, location.partition_id,
                                              True)
                pair = (table, location.partition_id)
                if pair in self.unavailable:
                    self.unavailable.remove(pair)
                self._note("partition_available", node_id,
                           location.partition_id)
        if self.replication is not None:
            # Replicas this node held missed every shipment while it was
            # away; mark them stale so re-replication reseeds them.
            for replica_set in self.catalog.replica_sets_holding_on(node_id):
                for replica in replica_set.replicas:
                    if replica.holder_node_id == node_id:
                        replica.stale = True
            yield from self._restore_factor()


class FailureDetector:
    """Declares nodes failed on heartbeat staleness.

    Runs as a simulation process next to the cluster monitor.  A node
    is suspected once its last heartbeat is older than
    ``miss_threshold`` monitoring intervals; a failed node whose
    heartbeats resume is handed back as restored (the coordinator's
    ``node_failed`` / ``node_restored`` timeline events).  Nodes that
    never reported (still on standby) are ignored.
    """

    def __init__(self, cluster: "Cluster",
                 coordinator: FailoverCoordinator,
                 miss_threshold: int = 3,
                 restore_threshold: int = 2):
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if restore_threshold < 1:
            raise ValueError("restore_threshold must be >= 1")
        self.cluster = cluster
        self.env = cluster.env
        self.coordinator = coordinator
        self.monitor = cluster.monitor
        self.poll_interval = self.monitor.interval
        self.deadline = miss_threshold * self.monitor.interval
        #: Hysteresis on the way back: a failed node must look healthy
        #: for this many *consecutive* polls before it is restored.  A
        #: node flapping through rapid sever/restore cycles otherwise
        #: oscillates the detector — each spurious restore tears down
        #: and reseeds replicas, and the next stale poll fails the node
        #: all over again.
        self.restore_threshold = restore_threshold
        self._fresh_polls: dict[int, int] = {}

    def run(self):
        """Generator: the detection loop (never returns)."""
        master_id = self.cluster.master.worker.node_id
        while True:
            yield self.env.timeout(self.poll_interval)
            now = self.env.now
            for worker in list(self.cluster.workers):
                node_id = worker.node_id
                if node_id == master_id:
                    continue
                last = self.monitor.heartbeats.get(node_id)
                if last is None:
                    continue
                stale = (now - last) > self.deadline
                if node_id in self.coordinator.failed_nodes:
                    if stale:
                        self._fresh_polls.pop(node_id, None)
                        continue
                    fresh = self._fresh_polls.get(node_id, 0) + 1
                    if fresh < self.restore_threshold:
                        self._fresh_polls[node_id] = fresh
                        continue
                    self._fresh_polls.pop(node_id, None)
                    yield from self.coordinator.node_restored(node_id)
                elif stale:
                    self._fresh_polls.pop(node_id, None)
                    yield from self.coordinator.node_failed(node_id)
