"""Physical partitioning: storage moves, ownership stays."""

from repro.core import PhysicalPartitioning
from tests.core.conftest import read_all


def migrate(env, cluster, fraction=0.5, targets=(2, 3)):
    scheme = PhysicalPartitioning()
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


def test_segments_hosted_on_targets(migration_cluster):
    env, cluster = migration_cluster
    source = cluster.workers[0]
    before = source.disk_space.segment_count()
    reports = migrate(env, cluster)
    moved = sum(r.segments_moved for r in reports)
    assert moved > 0
    assert source.disk_space.segment_count() == before - moved
    assert (
        cluster.worker(2).disk_space.segment_count()
        + cluster.worker(3).disk_space.segment_count()
        == moved
    )


def test_moves_roughly_half_the_records(migration_cluster):
    env, cluster = migration_cluster
    reports = migrate(env, cluster, fraction=0.5)
    records = sum(r.records_moved for r in reports)
    assert 150 <= records <= 300  # ~200 of 400, rounded up to segments


def test_ownership_does_not_transfer(migration_cluster):
    """The defining property: partitions (and the gpt) are unchanged."""
    env, cluster = migration_cluster
    before = {
        loc.partition_id: loc.node_id
        for _r, loc in cluster.master.gpt.partitions("kv")
    }
    migrate(env, cluster)
    after = {
        loc.partition_id: loc.node_id
        for _r, loc in cluster.master.gpt.partitions("kv")
    }
    assert before == after
    assert len(cluster.worker(2).partitions) == 0
    assert len(cluster.worker(3).partitions) == 0


def test_all_records_still_readable(migration_cluster):
    env, cluster = migration_cluster
    migrate(env, cluster)
    assert read_all(env, cluster) == []


def test_remote_pages_cost_network(migration_cluster):
    """Reads of moved segments now pay remote-page fetches."""
    env, cluster = migration_cluster
    migrate(env, cluster)
    source = cluster.workers[0]
    received_before = source.port.bytes_received

    def read_moved():
        txn = cluster.txns.begin()
        # Key 399 lives in a moved (upper-range) segment.
        row = yield from cluster.master.read("kv", 399, txn)
        assert row is not None
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(read_moved()))
    assert source.port.bytes_received > received_before


def test_copy_moves_real_bytes(migration_cluster):
    env, cluster = migration_cluster
    reports = migrate(env, cluster)
    assert all(r.bytes_copied > 0 for r in reports if r.segments_moved)
    assert cluster.network.bytes_total >= sum(r.bytes_copied for r in reports)


def test_migration_takes_simulated_time(migration_cluster):
    env, cluster = migration_cluster
    t0 = env.now
    reports = migrate(env, cluster)
    assert env.now > t0
    assert all(r.finished_at >= r.started_at for r in reports)
