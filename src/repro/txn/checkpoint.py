"""Fuzzy checkpoints and the WAL recycling horizon.

The paper's durability story leans on partition moves acting as
checkpoints (Sect. 4.3), which is enough for short bursts but not for
the endurance regime its energy results are measured in: without
periodic checkpoints the WAL grows without bound and recovery replays
from the beginning of time.  This module adds ARIES-flavoured *fuzzy*
checkpoints — taken without quiescing transactions — and the horizon
arithmetic that lets :meth:`repro.txn.wal.LogManager.truncate_before`
recycle the log:

* a :class:`CheckpointRecord` (active-transaction table, dirty-extent
  table, partition-table epochs, and the ``redo_lsn`` REDO must start
  from) is appended to the WAL and forced like any other record;
* the *base image* — the committed rows at the instant of the
  checkpoint, well-defined under MVCC even mid-transaction — is made
  durable on the data disk (modelled as a sequential write of the
  dirtied bytes) and kept per worker, newest image only, so recovery
  can load it and replay just the bounded suffix;
* the recycling horizon of a node's WAL is
  ``min(checkpoint redo_lsn, replication acked horizon,
  oldest open move)``: nothing is dropped that an un-acked replica
  shipment or an open move-journal entry may still need.

``redo_lsn = min(first data LSN of any live transaction, the
checkpoint's own LSN)``: everything older is either committed (hence in
the base image) or aborted, so replaying the suffix over the image
reconstructs exactly the committed state.  Replay is idempotent —
:func:`repro.txn.recovery.redo` upserts — so records both in the image
and after ``redo_lsn`` are harmless to re-apply.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.hardware.disk import DiskFailedError
from repro.sim.daemon import PeriodicDaemon
from repro.txn.wal import LOG_BLOCK_BYTES

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.catalog import Partition
    from repro.cluster.worker import WorkerNode
    from repro.ha.replication import ReplicationManager
    from repro.index.global_table import GlobalPartitionTable
    from repro.moves.journal import MoveJournal


@dataclasses.dataclass(frozen=True)
class CheckpointRecord:
    """Payload of a fuzzy checkpoint's WAL record.

    ``redo_lsn`` is where crash REDO must start; ``active_txns`` the
    transactions live at the instant of the checkpoint (their effects
    are NOT in the base image); ``dirty_extents`` the per-partition
    ``(partition_id, used_bytes)`` table standing in for ARIES's
    dirty-page table; ``gpt_epochs`` the ``(table, partition_id,
    epoch)`` fencing tokens of the partitions covered.
    """

    redo_lsn: int
    active_txns: tuple[int, ...] = ()
    dirty_extents: tuple[tuple[int, int], ...] = ()
    gpt_epochs: tuple[tuple[str, int, int], ...] = ()
    taken_at: float = 0.0


@dataclasses.dataclass
class CheckpointImage:
    """The durable base image one checkpoint captured for one
    partition: committed rows as of the checkpoint instant.  Only the
    newest image per partition is retained (bounded memory)."""

    checkpoint_lsn: int
    redo_lsn: int
    taken_at: float
    #: ``(key, values, nbytes)`` per committed row.
    rows: list[tuple]
    nbytes: int = 0


def iter_committed_rows(partition: "Partition"):
    """Yield the newest committed version of every live record — the
    base-image scan, shared with replica seeding
    (:mod:`repro.ha.replication`).  Each comes through the verifying
    page read, so its ``checksum`` matches its bytes."""
    for segment_id in sorted(partition.segments):
        segment = partition.segments[segment_id]
        for key, _chain in segment.index_scan():
            for _page_no, _slot, version in segment.versions_for(key):
                if version.created_ts is None or version.deleted_ts is not None:
                    continue
                yield version
                break


def take_worker_checkpoint(worker: "WorkerNode",
                           gpt: "GlobalPartitionTable | None" = None):
    """Generator: one fuzzy checkpoint of ``worker`` — no quiescing.

    Captures the committed base image of every local partition (an
    MVCC snapshot, consistent even while transactions are mid-flight),
    appends the checkpoint record, charges the data-disk write for the
    dirtied bytes, and forces the WAL.  Returns ``(lsn, record)``.
    """
    log = worker.wal
    env = log.env
    oldest = log.oldest_active_redo_lsn()
    own_lsn = log._next_lsn + 1
    redo_lsn = own_lsn if oldest is None else min(oldest, own_lsn)
    dirty_bytes = log._appended_bytes - log.appended_at_last_checkpoint

    images: dict[int, CheckpointImage] = {}
    dirty_extents = []
    gpt_epochs = []
    image_bytes = 0
    for partition_id, partition in sorted(worker.partitions.items()):
        rows = []
        nbytes = 0
        for version in iter_committed_rows(partition):
            rows.append((version.key, tuple(version.values),
                         version.size_bytes))
            nbytes += version.size_bytes
        images[partition_id] = CheckpointImage(
            checkpoint_lsn=own_lsn, redo_lsn=redo_lsn, taken_at=env.now,
            rows=rows, nbytes=nbytes,
        )
        image_bytes += nbytes
        dirty_extents.append((partition_id, partition.used_bytes))
        if gpt is not None:
            try:
                epoch = gpt.epoch_of(partition.table.name, partition_id)
            except KeyError:
                continue
            gpt_epochs.append((partition.table.name, partition_id, epoch))

    record = CheckpointRecord(
        redo_lsn=redo_lsn,
        active_txns=tuple(sorted(log._txn_first_lsn)),
        dirty_extents=tuple(dirty_extents),
        gpt_epochs=tuple(gpt_epochs),
        taken_at=env.now,
    )
    lsn = log.checkpoint(payload=record)
    worker.checkpoint_images = images

    # The background page writer: only bytes dirtied since the last
    # checkpoint hit the data disk, never the whole partition.
    write_bytes = max(LOG_BLOCK_BYTES, min(image_bytes, dirty_bytes))
    yield from worker.disk_space.disks[0].write(write_bytes, sequential=True)
    yield from log.flush(lsn)
    return lsn, record


class CheckpointManager(PeriodicDaemon):
    """Periodic fuzzy checkpoints plus WAL recycling.

    One background process walks the active workers on a fixed cadence:
    checkpoint, compute the recycling horizon, truncate.  With a
    :class:`~repro.ha.replication.ReplicationManager` attached it also
    respects the per-replica acked-LSN watermark and compacts replica
    logs that have outgrown ``compact_replicas_over`` records, keeping
    promotion replay bounded.
    """

    def __init__(self, cluster: "Cluster",
                 replication: "ReplicationManager | None" = None,
                 interval: float = 60.0, until: float | None = None,
                 compact_replicas_over: int | None = 4096):
        super().__init__(cluster.env, "checkpoint", interval, until)
        self.cluster = cluster
        self.replication = replication
        self.compact_replicas_over = compact_replicas_over
        # -- accounting ----------------------------------------------------
        self.checkpoints_taken = 0
        self.records_recycled = 0
        self.image_bytes_written = 0
        self.replica_compactions = 0
        self.replica_records_dropped = 0
        self.checkpoint_failures = 0
        #: Worst-case REDO length implied by any checkpoint taken:
        #: records between its ``redo_lsn`` and the log tail.
        self.max_replay_window = 0
        self.peak_live_records = 0
        #: Live records beyond the horizon after recycling — the
        #: footprint bound the endurance gate asserts on (exact-LSN
        #: truncation keeps this at zero).
        self.peak_footprint_slack = 0
        self.last_horizons: dict[int, int] = {}

    def _tick(self):
        return self.checkpoint_all()

    # -- one checkpoint round ----------------------------------------------

    def checkpoint_all(self):
        """Generator: checkpoint every serving worker and recycle its
        WAL up to the horizon; then compact oversized replica logs."""
        journal = self.cluster.moves.journal
        for worker in list(self.cluster.active_workers()):
            if not worker.is_serving:
                continue
            log = worker.wal
            # Worst-case REDO at any instant is the suffix behind the
            # *previous* checkpoint's redo point; it peaks right here,
            # just before the new checkpoint supersedes it.
            prev_redo = max(log.last_checkpoint_redo_lsn, 1)
            window = log._next_lsn - prev_redo + 1
            try:
                lsn, record = yield from take_worker_checkpoint(
                    worker, self.cluster.master.gpt
                )
            except DiskFailedError:
                self.checkpoint_failures += 1
                continue
            self.checkpoints_taken += 1
            self.image_bytes_written += sum(
                image.nbytes for image in worker.checkpoint_images.values()
            )
            self.max_replay_window = max(self.max_replay_window, window)
            self.peak_live_records = max(self.peak_live_records,
                                         log.live_records)
            horizon = self.recycling_horizon(worker, record.redo_lsn,
                                             journal)
            self.records_recycled += log.truncate_before(horizon)
            slack = log.live_records - (log._next_lsn - horizon + 1)
            self.peak_footprint_slack = max(self.peak_footprint_slack, slack)
            self.last_horizons[worker.node_id] = horizon
        if (self.replication is not None
                and self.compact_replicas_over is not None):
            yield from self._compact_replicas()

    def recycling_horizon(self, worker: "WorkerNode", redo_lsn: int,
                          journal: "MoveJournal | None" = None) -> int:
        """``min(checkpoint redo_lsn, replication acked horizon,
        oldest open move)`` for this worker's WAL.  Records below the
        returned LSN can never be needed again."""
        horizon = redo_lsn
        if self.replication is not None:
            pin = self.replication.acked_horizon(worker.node_id)
            if pin is not None:
                horizon = min(horizon, pin)
        if journal is not None and journal.wal is worker.wal:
            pin = journal.oldest_open_move_lsn()
            if pin is not None:
                horizon = min(horizon, pin)
        return horizon

    def _compact_replicas(self):
        catalog = self.cluster.catalog
        for replica_set in list(catalog.replica_sets.values()):
            for replica in list(replica_set.replicas):
                if replica.stale:
                    continue
                if replica.log.live_records <= self.compact_replicas_over:
                    continue
                before = replica.log.live_records
                compacted = yield from self.replication.compact_replica(
                    replica, replica_set.table
                )
                if compacted:
                    self.replica_compactions += 1
                    self.replica_records_dropped += (
                        before - replica.log.live_records
                    )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_failures": self.checkpoint_failures,
            "records_recycled": self.records_recycled,
            "image_bytes_written": self.image_bytes_written,
            "max_replay_window": self.max_replay_window,
            "peak_live_records": self.peak_live_records,
            "peak_footprint_slack": self.peak_footprint_slack,
            "replica_compactions": self.replica_compactions,
            "replica_records_dropped": self.replica_records_dropped,
        }
