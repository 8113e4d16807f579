"""Logical partitioning: record-level delete+reinsert movement."""

import pytest

from repro.core import LogicalPartitioning, PhysiologicalPartitioning
from tests.core.conftest import read_all


def migrate(env, cluster, fraction=0.5, targets=(2, 3), cc="mvcc"):
    scheme = LogicalPartitioning(cc=cc)
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


def test_records_moved_exactly(migration_cluster):
    """Logical movement is record-exact (quantile split, not segments)."""
    env, cluster = migration_cluster
    reports = migrate(env, cluster, fraction=0.5)
    moved = sum(r.records_moved for r in reports)
    assert moved == 200


def test_ownership_transfers(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    owners = {loc.node_id for _r, loc in cluster.master.gpt.partitions("kv")}
    assert owners == {0, 2, 3}


def test_all_records_readable_after_move(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    assert read_all(env, cluster) == []


def test_target_partitions_hold_the_moved_records(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    moved = 0
    for node_id in (2, 3):
        for partition in cluster.worker(node_id).partitions.values():
            moved += partition.record_count
    assert moved == 200
    source_partition = list(cluster.workers[0].partitions.values())[0]
    assert source_partition.record_count == 200


def test_moved_row_carries_its_source_crc(migration_cluster):
    """The mover re-creates each row born verified with the CRC it was
    read with, and that CRC still matches the bytes once the verdict
    is dropped."""
    env, cluster = migration_cluster
    source_partition = list(cluster.workers[0].partitions.values())[0]
    source_crc = {
        version.key: version.checksum
        for segment in source_partition.segments.values()
        for _p, _s, version in segment.scan_versions()
    }
    migrate(env, cluster)
    moved = 0
    for node_id in (2, 3):
        for partition in cluster.worker(node_id).partitions.values():
            for segment in partition.segments.values():
                for _p, _s, version in segment.scan_versions():
                    assert version.checksum == source_crc[version.key]
                    version.clean = False
                    version.verify()
                    moved += 1
    assert moved == 200


def test_logical_rewrites_records_into_new_segments(migration_cluster):
    """Unlike physiological, logical movement re-creates records in
    freshly allocated segments on the target."""
    env, cluster = migration_cluster
    source_partition = list(cluster.workers[0].partitions.values())[0]
    ids_before = set(source_partition.segments)
    migrate(env, cluster)
    for node_id in (2, 3):
        for partition in cluster.worker(node_id).partitions.values():
            assert set(partition.segments).isdisjoint(ids_before)


def test_source_space_reclaimed(migration_cluster):
    env, cluster = migration_cluster
    source = cluster.workers[0]
    before = source.disk_space.segment_count()
    migrate(env, cluster)

    def settle():
        # Extent release is deferred until in-flight txns drain.
        yield env.timeout(10.0)

    env.run(until=env.process(settle()))
    # Vacuum + empty-segment cleanup freed extents on the source.
    assert source.disk_space.segment_count() < before


def test_logical_is_slower_than_physiological(migration_cluster):
    """The paper's core comparison: scanning and re-inserting records
    takes longer than shipping raw segments."""
    env, cluster = migration_cluster

    # Run logical first on this cluster and measure.
    t0 = env.now
    migrate(env, cluster, fraction=0.3, targets=(2,))
    logical_time = env.now - t0

    # Fresh identical cluster for physiological.
    env2, cluster2 = _fresh()
    scheme = PhysiologicalPartitioning()

    def go():
        yield from cluster2.power_on(2)
        yield from scheme.migrate_fraction(
            cluster2, "kv", cluster2.workers[0], [cluster2.worker(2)], 0.3
        )

    t0 = env2.now
    env2.run(until=env2.process(go()))
    physio_time = env2.now - t0

    assert logical_time > physio_time


def _fresh():
    from repro import Cluster, Column, Environment, Schema

    env = Environment()
    cluster = Cluster(
        env, node_count=4, initially_active=2,
        buffer_pages_per_node=512, segment_max_pages=8, page_bytes=1024,
    )
    schema = Schema([Column("id"), Column("v", "str", width=40)], key=("id",))
    cluster.master.create_table("kv", schema, owner=cluster.workers[0])

    def load():
        for start in range(0, 400, 50):
            txn = cluster.txns.begin()
            for i in range(start, start + 50):
                yield from cluster.master.insert(
                    "kv", (i, "payload-%04d" % i), txn
                )
            yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    return env, cluster


def test_concurrent_reads_during_logical_move(migration_cluster):
    env, cluster = migration_cluster
    failures = []

    def reader():
        for i in range(150):
            txn = cluster.txns.begin()
            key = (i * 11) % 400
            row = yield from cluster.master.read("kv", key, txn)
            if row is None or row[0] != key:
                failures.append((env.now, key))
            yield from cluster.txns.commit(txn)
            yield env.timeout(0.05)

    def mover():
        scheme = LogicalPartitioning()
        yield from cluster.power_on(2)
        yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0], [cluster.worker(2)], 0.5
        )

    reader_proc = env.process(reader())
    env.process(mover())
    env.run(until=reader_proc)
    assert failures == []


def test_concurrent_updates_during_logical_move(migration_cluster):
    """Client updates race the mover; conflicts retry; nothing is lost."""
    env, cluster = migration_cluster
    applied = []

    def writer():
        i = 0
        while len(applied) < 30:
            txn = cluster.txns.begin()
            key = 300 + (i % 100)
            i += 1
            try:
                yield from cluster.master.update(
                    "kv", key, (key, "client-%03d" % i), txn
                )
                yield from cluster.txns.commit(txn)
                applied.append(key)
            except Exception:
                if txn.state.value == "active":
                    cluster.txns.abort(txn)
            yield env.timeout(0.2)

    def mover():
        scheme = LogicalPartitioning()
        yield from cluster.power_on(2)
        yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0], [cluster.worker(2)], 0.5
        )

    writer_proc = env.process(writer())
    env.process(mover())
    env.run(until=writer_proc)
    assert len(applied) == 30
    assert read_all(env, cluster) == []


def test_locking_mode_movement(migration_cluster):
    """Under MGL-RX the mover takes record X locks; result identical."""
    env, cluster = migration_cluster
    reports = migrate(env, cluster, fraction=0.4, targets=(2,), cc="locking")
    assert sum(r.records_moved for r in reports) == 160
    assert read_all(env, cluster) == []


def test_locking_move_drains_writers_and_reclaims_the_source(migration_cluster):
    """Under MGL-RX the mover's partition guard queues behind a writer
    that got in first ("updating transactions need to commit before the
    lock is granted", Sect. 4.3) and nothing moves until it commits;
    the batches then run as system transactions under the guard, and
    the move itself vacuums the delete-marked source versions."""
    env, cluster = migration_cluster
    source_partition = list(cluster.workers[0].partitions.values())[0]
    guard_resource = ("partition", source_partition.partition_id)
    seen = {}

    def writer():
        txn = cluster.txns.begin(cc="locking")
        yield from cluster.master.update("kv", 399, (399, "late"), txn)
        while not cluster.txns.locks.queue_length(guard_resource):
            yield env.timeout(0.1)  # hold the intent until the guard queues
        seen["moved_while_held"] = sum(
            p.record_count for p in cluster.worker(2).partitions.values())
        yield from cluster.txns.commit(txn)

    env.process(writer())
    reports = migrate(env, cluster, fraction=0.4, targets=(2,), cc="locking")
    assert seen["moved_while_held"] == 0
    assert sum(r.records_moved for r in reports) == 160

    def read_moved():
        txn = cluster.txns.begin(cc="locking")
        row = yield from cluster.master.read("kv", 399, txn)
        yield from cluster.txns.commit(txn)
        return row

    assert env.run(until=env.process(read_moved())) == (399, "late")
    for key in range(240, 400):
        segment = source_partition.segment_for(key)
        assert segment is None or segment.versions_for(key) == []
