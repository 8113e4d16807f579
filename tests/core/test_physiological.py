"""Physiological partitioning: segment moves WITH ownership transfer,
dual-pointer routing, forwarding retirement, checkpoint logging."""

import pytest

from repro.core import PhysiologicalPartitioning, rollback_range_registration
from repro.core.migration import register_move
from repro.core.schemes import ordered_segments
from repro.index.partition_tree import Forwarding, KeyRange
from repro.moves import SPLIT
from tests.core.conftest import read_all


def migrate(env, cluster, fraction=0.5, targets=(2, 3)):
    scheme = PhysiologicalPartitioning()
    target_workers = []

    def go():
        for node_id in targets:
            worker = cluster.worker(node_id)
            if not worker.is_active:
                yield from cluster.power_on(node_id)
            target_workers.append(worker)
        reports = yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0], target_workers, fraction
        )
        return reports

    return env.run(until=env.process(go()))


def test_ownership_transfers_to_targets(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    owners = {loc.node_id for _r, loc in cluster.master.gpt.partitions("kv")}
    assert owners == {0, 2, 3}
    assert len(cluster.worker(2).partitions) == 1
    assert len(cluster.worker(3).partitions) == 1
    for _r, loc in cluster.master.gpt.partitions("kv"):
        assert not loc.is_moving  # moves finalised


def test_all_records_readable_after_move(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    assert read_all(env, cluster) == []


def test_segments_spliced_not_rewritten(migration_cluster):
    """Moved segments keep their identity (the embedded index moved
    with them — no record-level rewrite happened)."""
    env, cluster = migration_cluster
    source_partition = list(cluster.workers[0].partitions.values())[0]
    ids_before = set(source_partition.segments)
    migrate(env, cluster)
    moved_ids = set()
    for worker in (cluster.worker(2), cluster.worker(3)):
        for partition in worker.partitions.values():
            moved_ids.update(partition.segments)
    assert moved_ids
    assert moved_ids <= ids_before


def test_forwarding_pointers_exist_then_retire(migration_cluster):
    env, cluster = migration_cluster
    source_partition = list(cluster.workers[0].partitions.values())[0]

    # Hold a transaction open across the migration so retirement waits.
    old_txn = cluster.txns.begin()
    migrate(env, cluster)
    forwardings = [
        t for _sid, _r, t in source_partition.tree.entries()
        if isinstance(t, Forwarding)
    ]
    assert forwardings  # old readers still have pointers to chase

    def drain():
        yield from cluster.txns.commit(old_txn)
        # Give the retirement watchers time to fire.
        yield env.timeout(5.0)

    env.run(until=env.process(drain()))
    leftover = [
        t for _sid, _r, t in source_partition.tree.entries()
        if isinstance(t, Forwarding)
    ]
    assert leftover == []



def test_a_stale_route_follows_the_forwarding_pointer(migration_cluster):
    """A route that still names the source meets the moved segment's
    forwarding pointer there and re-issues the read on its target."""
    env, cluster = migration_cluster
    cluster.txns.begin()  # an old transaction keeps the pointers alive
    migrate(env, cluster)
    source = cluster.workers[0]
    key_range, stub = next(
        (r, t) for p in source.partitions.values()
        for _sid, r, t in p.tree.entries() if isinstance(t, Forwarding)
    )
    key = next(k for k in range(400) if key_range.contains(k))
    location = cluster.master.gpt.locate("kv", key)
    assert location.node_id == stub.target_node_id != source.node_id
    location.node_id = source.node_id

    def read():
        txn = cluster.txns.begin()
        row = yield from cluster.master.read("kv", key, txn)
        yield from cluster.txns.commit(txn)
        return row

    row = env.run(until=env.process(read()))
    assert row is not None and row[0] == key

def test_move_acts_as_checkpoint_on_source_log(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    kinds = [r.kind for r in cluster.workers[0].wal.records]
    assert "checkpoint" in kinds


def test_new_writes_log_on_target_node(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    target2 = cluster.worker(2)
    target3 = cluster.worker(3)
    before = len(target2.wal.records) + len(target3.wal.records)

    def write_moved_key():
        txn = cluster.txns.begin()
        yield from cluster.master.update("kv", 399, (399, "updated"), txn)
        # Commit flushes whichever WAL the write landed in.
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(write_moved_key()))
    after = len(target2.wal.records) + len(target3.wal.records)
    assert after > before


def test_concurrent_reads_survive_migration(migration_cluster):
    """Queries running *during* the move keep succeeding (the paper's
    central correctness claim)."""
    env, cluster = migration_cluster
    failures = []
    reads_done = []

    def reader():
        for i in range(200):
            txn = cluster.txns.begin()
            key = (i * 7) % 400
            row = yield from cluster.master.read("kv", key, txn)
            if row is None or row[0] != key:
                failures.append((env.now, key))
            yield from cluster.txns.commit(txn)
            reads_done.append(key)
            yield env.timeout(0.05)

    def mover():
        scheme = PhysiologicalPartitioning()
        yield from cluster.power_on(2)
        yield from cluster.power_on(3)
        reports = yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0],
            [cluster.worker(2), cluster.worker(3)], 0.5,
        )
        return reports

    reader_proc = env.process(reader())
    env.process(mover())
    env.run(until=reader_proc)
    assert failures == []
    assert len(reads_done) == 200


def test_concurrent_writes_drain_then_proceed(migration_cluster):
    """Writers block briefly on the partition read-lock, then land on
    the new owner; no write is lost."""
    env, cluster = migration_cluster
    write_errors = []

    def writer():
        for i in range(60):
            txn = cluster.txns.begin()
            key = 350 + (i % 50)  # upper range: moves to a target
            try:
                yield from cluster.master.update(
                    "kv", key, (key, "w%03d" % i), txn
                )
                yield from cluster.txns.commit(txn)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                write_errors.append(repr(exc))
                if txn.state.value == "active":
                    cluster.txns.abort(txn)
            yield env.timeout(0.1)

    def mover():
        scheme = PhysiologicalPartitioning()
        yield from cluster.power_on(2)
        yield from cluster.power_on(3)
        yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0],
            [cluster.worker(2), cluster.worker(3)], 0.5,
        )

    writer_proc = env.process(writer())
    env.process(mover())
    env.run(until=writer_proc)
    assert write_errors == []
    assert read_all(env, cluster) == []


def test_reports_record_bytes_and_segments(migration_cluster):
    env, cluster = migration_cluster
    reports = migrate(env, cluster)
    assert sum(r.segments_moved for r in reports) > 0
    assert sum(r.records_moved for r in reports) >= 150
    assert all(r.scheme == "physiological" for r in reports)


def test_split_mode_registration_rolls_back_to_the_pre_move_table(
        migration_cluster):
    """A range move that carved the upper half out of the source's
    entry (SPLIT) and dies before any segment switched is undone by
    ``unsplit``: one ``[-inf, +inf)`` entry on the source again."""
    env, cluster = migration_cluster
    source, target = cluster.workers[0], cluster.workers[1]
    (partition,) = source.partitions.values()
    gpt = cluster.master.gpt
    epoch_before = gpt.epoch_of("kv", partition.partition_id)
    segments = ordered_segments(partition)
    split_key = segments[len(segments) // 2][0].low

    target_partition, mode = register_move(
        cluster, partition, source, target, KeyRange(split_key, None))
    # The physiological scheme fences the moving range off the source.
    partition.moving_out[target_partition.partition_id] = KeyRange(
        split_key, None)
    assert mode == SPLIT
    assert len(list(gpt.partitions("kv"))) == 2
    entry = cluster.moves.journal.open_range_move(
        "kv", partition.partition_id, target_partition.partition_id,
        source.node_id, target.node_id, mode,
        epoch=gpt.epoch_of("kv", target_partition.partition_id))
    rollback_range_registration(cluster, entry)

    ((key_range, location),) = gpt.partitions("kv")
    assert key_range == KeyRange(None, None)
    assert location.partition_id == partition.partition_id
    assert location.node_id == source.node_id
    assert not location.is_moving
    assert location.epoch > epoch_before
    assert target.partitions == {}
    assert partition.moving_out == {}
    assert read_all(env, cluster) == []

    def insert_above_the_old_split():
        txn = cluster.txns.begin()
        yield from cluster.master.insert("kv", (1000, "after"), txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(insert_above_the_old_split()))
    assert read_all(env, cluster, keys=[1000]) == []
