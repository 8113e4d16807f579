"""Fuzzy checkpoints: bounded REDO that reconstructs committed state.

The contract under test: a checkpoint image (the committed rows at the
checkpoint instant, well-defined under MVCC even with transactions in
flight) plus the WAL suffix from the checkpoint's ``redo_lsn`` rebuilds
exactly the state a full from-scratch replay would — so the records
below the horizon can be recycled.
"""

import dataclasses

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.hardware import Disk, SSD_SPEC
from repro.storage.checksum import IntegrityError
from repro.txn import recovery
from repro.txn.checkpoint import (
    CheckpointManager,
    CheckpointRecord,
    take_worker_checkpoint,
)
from repro.txn.wal import LogManager


@pytest.fixture()
def rig():
    env = Environment()
    cluster = Cluster(env, node_count=2, initially_active=2,
                      buffer_pages_per_node=256, segment_max_pages=16,
                      page_bytes=2048)
    schema = Schema([Column("id"), Column("v", "str", width=32)], key=("id",))
    cluster.master.create_table("kv", schema, owner=cluster.workers[0])
    return env, cluster


def run(env, gen):
    return env.run(until=env.process(gen))


def scratch_partition(cluster, table="kv"):
    """A blank partition to replay into, NOT attached to any worker."""
    return cluster.catalog.new_partition(table, 0)


def committed_rows(partition):
    rows = {}
    for seg in partition.segments.values():
        for _p, _s, version in seg.scan_versions():
            if version.deleted_ts is None:
                rows[version.key] = tuple(version.values)
    return rows


def write_batch(cluster, lo, hi, tag):
    def work():
        txn = cluster.txns.begin()
        for i in range(lo, hi):
            yield from cluster.master.insert("kv", (i, f"{tag}-{i}"), txn)
        yield from cluster.txns.commit(txn)
    return work


def test_checkpoint_record_carries_redo_lsn(rig):
    env, cluster = rig
    worker = cluster.workers[0]
    run(env, write_batch(cluster, 0, 10, "pre")())

    def checkpoint():
        return (yield from take_worker_checkpoint(worker,
                                                  cluster.master.gpt))

    lsn, record = run(env, checkpoint())
    assert isinstance(record, CheckpointRecord)
    assert record.active_txns == ()           # nothing in flight
    assert record.redo_lsn == lsn             # so REDO starts at the record
    assert worker.wal.last_checkpoint_lsn == lsn
    assert worker.wal.last_checkpoint_redo_lsn == lsn
    images = worker.checkpoint_images
    assert len(images) == 1
    (image,) = images.values()
    assert len(image.rows) == 10


def test_checkpoint_payload_is_covered_by_its_crc():
    """Every field of a checkpoint record is under the record's CRC: a
    rotted ``redo_lsn`` would start REDO at the wrong LSN."""
    env = Environment(seed=1)
    log = LogManager(env, Disk(env, SSD_SPEC), name="ckpt")
    log.checkpoint(payload=CheckpointRecord(redo_lsn=5, active_txns=(3,)))
    (record,) = log.records
    dataclasses.replace(record).verify(where="test")
    for rotted in (CheckpointRecord(redo_lsn=999, active_txns=(3,)),
                   CheckpointRecord(redo_lsn=5),
                   CheckpointRecord(redo_lsn=5, active_txns=(3,),
                                    gpt_epochs=(("kv", 0, 2),))):
        with pytest.raises(IntegrityError):
            dataclasses.replace(record, payload=rotted).verify(where="test")


def test_recovery_replays_only_post_checkpoint_records(rig):
    """The headline property: after checkpoint + more commits + crash,
    REDO analyzes only the suffix behind the checkpoint, loads the rest
    from the image, and the result equals the live committed state."""
    env, cluster = rig
    worker = cluster.workers[0]
    run(env, write_batch(cluster, 0, 20, "pre")())

    def checkpoint():
        return (yield from take_worker_checkpoint(worker,
                                                  cluster.master.gpt))

    run(env, checkpoint())
    run(env, write_batch(cluster, 20, 25, "post")())

    def mutate():
        txn = cluster.txns.begin()
        yield from cluster.master.update("kv", 3, (3, "updated"), txn)
        yield from cluster.master.delete("kv", 7, txn)
        yield from cluster.txns.commit(txn)

    run(env, mutate())

    live = committed_rows(next(iter(worker.partitions.values())))
    pid = next(iter(worker.partitions))
    image = worker.checkpoint_images[pid]

    scratch = scratch_partition(cluster)
    report = recovery.recover_worker_table(worker.wal, scratch, "kv",
                                           image=image)
    assert committed_rows(scratch) == live
    assert report.image_rows == 20
    # Only the post-checkpoint suffix was analyzed: 5 inserts + 1 update
    # + 1 delete + commits/aborts, nowhere near the 20 pre-image inserts.
    assert report.redone_inserts == 5
    assert report.analyzed_records < 20
    assert report.start_lsn == worker.wal.last_checkpoint_redo_lsn


def test_image_plus_suffix_equals_full_replay(rig):
    env, cluster = rig
    worker = cluster.workers[0]
    run(env, write_batch(cluster, 0, 15, "a")())

    def checkpoint():
        return (yield from take_worker_checkpoint(worker,
                                                  cluster.master.gpt))

    run(env, checkpoint())
    run(env, write_batch(cluster, 15, 30, "b")())

    pid = next(iter(worker.partitions))
    image = worker.checkpoint_images[pid]

    fast = scratch_partition(cluster)
    recovery.recover_worker_table(worker.wal, fast, "kv", image=image)
    full = scratch_partition(cluster)
    recovery.recover_worker_table(worker.wal, full, "kv",
                                  from_checkpoint=False)
    assert committed_rows(fast) == committed_rows(full)


def test_fuzzy_checkpoint_mid_transaction(rig):
    """A checkpoint taken while a transaction is mid-flight must set
    ``redo_lsn`` back to that transaction's first record, and recovery
    must still reproduce the committed state (the in-flight transaction
    commits after the checkpoint)."""
    env, cluster = rig
    worker = cluster.workers[0]
    run(env, write_batch(cluster, 0, 5, "pre")())

    captured = {}

    def interleaved():
        txn = cluster.txns.begin()
        yield from cluster.master.insert("kv", (100, "inflight"), txn)
        lsn, record = yield from take_worker_checkpoint(
            worker, cluster.master.gpt
        )
        captured["lsn"], captured["record"] = lsn, record
        yield from cluster.master.insert("kv", (101, "later"), txn)
        yield from cluster.txns.commit(txn)

    run(env, interleaved())
    record = captured["record"]
    assert record.active_txns != ()
    assert record.redo_lsn < captured["lsn"]

    live = committed_rows(next(iter(worker.partitions.values())))
    pid = next(iter(worker.partitions))
    image = worker.checkpoint_images[pid]
    # The image must NOT contain the in-flight rows...
    assert 100 not in {r[0] for r in image.rows}
    # ...yet recovery reproduces them from the suffix.
    scratch = scratch_partition(cluster)
    recovery.recover_worker_table(worker.wal, scratch, "kv", image=image)
    assert committed_rows(scratch) == live
    assert live[100] == (100, "inflight")


def test_stale_image_is_ignored(rig):
    """An image from an older checkpoint (a newer checkpoint record
    exists in the log) must not be loaded — recovery falls back to
    replaying from the newer checkpoint's own semantics."""
    env, cluster = rig
    worker = cluster.workers[0]
    run(env, write_batch(cluster, 0, 5, "pre")())

    def checkpoint():
        return (yield from take_worker_checkpoint(worker,
                                                  cluster.master.gpt))

    run(env, checkpoint())
    pid = next(iter(worker.partitions))
    stale = worker.checkpoint_images[pid]
    run(env, write_batch(cluster, 5, 8, "mid")())
    run(env, checkpoint())                    # newer checkpoint, new image

    scratch = scratch_partition(cluster)
    report = recovery.recover_worker_table(worker.wal, scratch, "kv",
                                           image=stale)
    assert report.image_rows == 0             # stale image rejected


def test_manager_recycles_behind_horizon(rig):
    env, cluster = rig
    worker = cluster.workers[0]
    run(env, write_batch(cluster, 0, 40, "bulk")())
    manager = CheckpointManager(cluster, interval=5.0)

    def one_round():
        yield from manager.checkpoint_all()

    before = worker.wal.live_records
    run(env, one_round())
    assert manager.checkpoints_taken >= 1
    assert manager.records_recycled > 0
    assert worker.wal.live_records < before
    # Everything below the redo point is gone; the checkpoint survives.
    assert worker.wal.records[0].lsn >= \
        manager.last_horizons[worker.node_id]
    assert any(r.kind == "checkpoint" for r in worker.wal.records)


def test_manager_until_bound_with_drained_env(rig):
    """A manager whose ``until`` is already in the past must exit at its
    first wakeup check without checkpointing — the drained-environment
    regression that used to schedule a tick past the bound."""
    env, cluster = rig
    run(env, write_batch(cluster, 0, 5, "x")())
    env.run()                                  # drain completely
    now = env.now
    manager = CheckpointManager(cluster, interval=10.0, until=now).start()
    env.run()
    assert manager.checkpoints_taken == 0
    assert env.now == now
