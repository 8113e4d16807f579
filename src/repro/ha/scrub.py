"""Background scrub-and-repair: find silent corruption before reads do.

Checksums (:mod:`repro.storage.checksum`) turn bit rot from silent
wrong answers into typed :class:`IntegrityError`\\ s — but only when the
rotten row is *read*.  Cold data can sit corrupt for hours, and by the
time a query trips over it the last healthy replica may be gone.  The
scrub daemon closes that window: it walks every segment page and every
replica log in the background, verifies checksums, and repairs what it
finds while healthy copies still exist.

The daemon reuses the incremental discipline of
:class:`repro.cluster.vacuum.VacuumScheduler`: a *pass* enumerates the
cluster's scrub units once (segments and replica logs), and each tick
visits at most ``pages_per_tick`` pages, resuming where it left off.

Repair protocol, in order of preference:

1. **Page row fails its checksum** — fold the committed state out of a
   healthy replica's log; if the replica's value for the key matches
   the row's stored checksum, the original bytes are restored in place
   (``repaired``).
2. **No healthy copy** — the partition is *fenced* through the
   failover coordinator (``set_available(False)``): readers get
   ``PartitionUnavailableError`` instead of garbage (``fenced``).
3. **Replica log fails its checksum** — the replica is marked stale
   (never promoted) and re-replication rebuilds it from the primary
   (``replicas_rebuilt``).

Each resolution is a ``scrub`` event on the cluster's timeline.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.hardware.disk import DiskFailedError
from repro.ha.replication import fold_committed_rows
from repro.sim.daemon import PeriodicDaemon
from repro.storage.checksum import IntegrityError, checksum_of
from repro.txn.wal import LOG_BLOCK_BYTES

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.ha.failover import FailoverCoordinator
    from repro.ha.replication import ReplicationManager, SegmentReplica
    from repro.storage.segment import Segment


@dataclasses.dataclass(frozen=True)
class ScrubPolicy:
    """Throttling knobs for the scrub daemon."""

    #: Simulated seconds between wakeups.
    interval: float = 10.0
    #: Pages verified per wakeup across all segments (None = a full
    #: pass every tick — fine for short figures, not for endurance).
    pages_per_tick: int | None = 64


class ScrubDaemon(PeriodicDaemon):
    """Background checksum verification with repair-or-fence."""

    def __init__(self, cluster: "Cluster",
                 replication: "ReplicationManager",
                 coordinator: "FailoverCoordinator | None" = None,
                 policy: ScrubPolicy | None = None,
                 until: float | None = None):
        self.cluster = cluster
        self.replication = replication
        self.coordinator = coordinator
        self.policy = policy or ScrubPolicy()
        super().__init__(cluster.env, "scrub", self.policy.interval, until)
        if self.policy.pages_per_tick is not None \
                and self.policy.pages_per_tick < 1:
            raise ValueError("pages_per_tick must be >= 1")
        #: Work queue of the current pass.  Segment units are
        #: ``("segment", node_id, partition_id, segment_id, next_page)``
        #: (resumable mid-segment); replica units are
        #: ``("replica", partition_id, holder_node_id)``.  Object refs
        #: are re-resolved at visit time, so units whose segment moved
        #: or whose replica was dropped between ticks are safe no-ops.
        self._queue: collections.deque[tuple] = collections.deque()
        # -- accounting ----------------------------------------------------
        self.ticks = 0
        self.passes = 0
        self.pages_scanned = 0
        self.versions_verified = 0
        self.replica_logs_scanned = 0
        self.corruptions_found = 0
        self.repaired = 0
        self.fenced = 0
        self.replicas_rebuilt = 0

    # -- one wakeup --------------------------------------------------------

    def _tick(self):
        self.ticks += 1
        if not self._queue:
            self._build_queue()
        budget = self.policy.pages_per_tick
        spent = 0
        deferred: list[tuple] = []
        for _ in range(len(self._queue)):
            if budget is not None and spent >= budget:
                break
            unit = self._queue.popleft()
            if unit[0] == "segment":
                _kind, node_id, partition_id, segment_id, next_page = unit
                remaining = None if budget is None else budget - spent
                done, pages = yield from self._scrub_segment(
                    node_id, partition_id, segment_id, next_page, remaining
                )
                spent += pages
                if not done:
                    deferred.append(("segment", node_id, partition_id,
                                     segment_id, next_page + pages))
            else:
                _kind, partition_id, holder_id = unit
                yield from self._scrub_replica(partition_id, holder_id)
                spent += 1
        self._queue.extend(deferred)
        if not self._queue:
            self.passes += 1

    def _build_queue(self) -> None:
        for worker in self.cluster.active_workers():
            for partition in list(worker.partitions.values()):
                for segment_id in sorted(partition.segments):
                    self._queue.append(
                        ("segment", worker.node_id,
                         partition.partition_id, segment_id, 0)
                    )
        for partition_id in sorted(self.cluster.catalog.replica_sets):
            replica_set = self.cluster.catalog.replica_set_for(partition_id)
            for replica in replica_set.replicas:
                self._queue.append(
                    ("replica", partition_id, replica.holder_node_id)
                )

    # -- segment scrubbing -------------------------------------------------

    def _scrub_segment(self, node_id: int, partition_id: int,
                       segment_id: int, first_page: int,
                       page_budget: int | None):
        """Generator: verify up to ``page_budget`` pages of one segment
        starting at ``first_page``.  Returns ``(done, pages_visited)``.
        """
        worker = self.cluster.worker(node_id)
        if not worker.is_serving:
            return True, 0
        partition = worker.partitions.get(partition_id)
        if partition is None:
            return True, 0
        segment = partition.segments.get(segment_id)
        if segment is None:
            return True, 0
        pages = segment.pages
        last = len(pages)
        if page_budget is not None:
            last = min(last, first_page + page_budget)
        visited = 0
        scanned_bytes = 0
        corrupt: list = []
        for page_no in range(first_page, last):
            page = pages[page_no]
            visited += 1
            scanned_bytes += max(page.used_bytes, 1)
            for _slot, version in page.versions():
                if version.checksum is None:
                    continue
                self.versions_verified += 1
                try:
                    version.verify(where="scrub")
                except IntegrityError:
                    self.corruptions_found += 1
                    corrupt.append(version)
        self.pages_scanned += visited
        if visited:
            try:
                yield from worker.disk_space.disks[0].read(
                    scanned_bytes, sequential=True
                )
            except DiskFailedError:
                # The data disk died mid-scrub; failover owns this node
                # now.  Nothing to repair *to* — drop the unit.
                return True, visited
        for version in corrupt:
            yield from self._repair_version(partition, version)
        return first_page + visited >= len(pages), visited

    def _repair_version(self, partition, version):
        """Generator: restore a corrupt row from a healthy replica's
        committed fold, or fence the partition when no copy survives."""
        table = partition.table.name
        replica_set = self.cluster.catalog.replica_set_for(
            partition.partition_id
        )
        if replica_set is not None:
            for replica in replica_set.live_replicas(self.cluster):
                rows = yield from self._fold_replica(replica)
                if rows is None:
                    continue  # replica itself corrupt; now stale
                if version.key not in rows:
                    continue
                values = tuple(rows[version.key][0])
                if checksum_of((version.key, values)) != version.checksum:
                    # The replica's newest committed value is not the
                    # version we hold (e.g. an uncommitted newer write
                    # is in flight) — not a safe repair source.
                    continue
                version.values = values
                version.clean = False
                version.verify(where="scrub-repair")
                self.repaired += 1
                self.cluster.note("scrub", "repaired", partition.node_id,
                                  partition.partition_id,
                                  f"{table} key {version.key!r}")
                return
        self.fenced += 1
        self.cluster.note("scrub", "fenced", partition.node_id,
                          partition.partition_id,
                          f"{table} key {version.key!r}")
        if self.coordinator is not None:
            self.coordinator.fence_partition(
                table, partition.partition_id, partition.node_id,
                detail=f"unrepairable corruption at key {version.key!r}",
            )
        else:
            self.cluster.master.gpt.set_available(
                table, partition.partition_id, False
            )

    def _fold_replica(self, replica: "SegmentReplica"):
        """Generator: the committed ``{key: (values, nbytes)}`` state of
        one replica log, checksum-verified; ``None`` (and the replica
        marked stale) when the log itself is corrupt."""
        holder = self.cluster.worker(replica.holder_node_id)
        try:
            yield from holder.log_disk.read(
                max(replica.log.live_bytes, LOG_BLOCK_BYTES),
                sequential=True,
            )
        except DiskFailedError:
            replica.stale = True
            return None
        try:
            replica.log.verify_all(where="scrub-replica")
        except IntegrityError:
            replica.stale = True
            self.corruptions_found += 1
            self.replication.integrity_failures += 1
            return None
        return fold_committed_rows(replica.log)

    # -- replica-log scrubbing ----------------------------------------------

    def _scrub_replica(self, partition_id: int, holder_id: int):
        """Generator: verify one replica's log; a corrupt log marks the
        replica stale and re-replication rebuilds it from the primary."""
        replica_set = self.cluster.catalog.replica_set_for(partition_id)
        if replica_set is None:
            return
        replica = None
        for candidate in replica_set.replicas:
            if candidate.holder_node_id == holder_id:
                replica = candidate
                break
        if replica is None or replica.stale:
            return
        holder = self.cluster.worker(holder_id)
        if not holder.is_serving:
            return
        self.replica_logs_scanned += 1
        try:
            yield from holder.log_disk.read(
                max(replica.log.live_bytes, LOG_BLOCK_BYTES),
                sequential=True,
            )
        except DiskFailedError:
            replica.stale = True
            return
        try:
            replica.log.verify_all(where="scrub-replica")
        except IntegrityError:
            pass
        else:
            return
        self.corruptions_found += 1
        replica.stale = True
        self.replication.integrity_failures += 1
        primary = self.cluster.worker(replica_set.primary_node_id)
        partition = primary.partitions.get(partition_id) \
            if primary.is_serving else None
        rebuilt = False
        if partition is not None:
            before = len(replica_set.replicas)
            yield from self.replication.protect_partition(partition)
            rebuilt = any(
                not r.stale and r is not replica
                for r in replica_set.replicas
            ) and len(replica_set.replicas) >= min(
                before, self.replication.k - 1
            )
        if rebuilt:
            self.replicas_rebuilt += 1
        self.cluster.note(
            "scrub", "replica_rebuilt" if rebuilt else "replica_dropped",
            holder_id, partition_id, replica_set.table)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "ticks": self.ticks,
            "passes": self.passes,
            "pages_scanned": self.pages_scanned,
            "versions_verified": self.versions_verified,
            "replica_logs_scanned": self.replica_logs_scanned,
            "corruptions_found": self.corruptions_found,
            "repaired": self.repaired,
            "fenced": self.fenced,
            "replicas_rebuilt": self.replicas_rebuilt,
            "pending_units": len(self._queue),
        }
