"""Replication manager: seeding, synchronous shipping, degradation."""

import pytest

from repro.ha.placement import PlacementPolicy
from repro.ha.replication import REPLICA_BASE_TXN_ID, ReplicationManager
from repro.txn.manager import TxnState
from tests.ha.conftest import insert_rows, run, step_until


def kv_partition(cluster):
    return cluster.workers[1].partitions_for_table("kv")[0]


def protect(env, cluster, k=2, rack_width=2):
    manager = ReplicationManager(
        cluster, k=k, policy=PlacementPolicy(cluster, rack_width=rack_width)
    )
    run(env, manager.protect_all())
    return manager


def test_seed_builds_base_image(rig):
    env, cluster = rig
    insert_rows(env, cluster, 25)
    manager = protect(env, cluster, k=2)
    rs = cluster.catalog.replica_set_for(kv_partition(cluster).partition_id)
    assert rs is not None
    assert len(rs.replicas) == 1
    replica = rs.replicas[0]
    assert replica.holder_node_id != rs.primary_node_id
    base = [r for r in replica.log.records
            if r.txn_id == REPLICA_BASE_TXN_ID and r.kind == "insert"]
    assert len(base) == 25
    # Seeding forces the holder's log disk and costs sim time.
    assert replica.log.flushed_lsn > 0
    assert env.now > 0


def test_commit_ships_log_tail_synchronously(rig):
    env, cluster = rig
    insert_rows(env, cluster, 5)
    manager = protect(env, cluster, k=3)
    rs = cluster.catalog.replica_set_for(kv_partition(cluster).partition_id)
    assert len(rs.replicas) == 2
    insert_rows(env, cluster, 7, start=100)
    for replica in rs.replicas:
        shipped = [r for r in replica.log.records
                   if r.kind == "insert" and r.txn_id > 0]
        assert len(shipped) == 7
        commits = [r for r in replica.log.records
                   if r.kind == "commit" and r.txn_id > 0]
        assert commits, "commit record must be shipped with the tail"
        # Synchronous: shipped records are flushed, not just appended.
        assert replica.log.flushed_lsn == replica.log.records[-1].lsn
    assert manager.commits_shipped >= 1
    assert manager.records_shipped >= 14


def test_replica_append_reuses_the_shipped_row_crc(rig, monkeypatch):
    """Neither the primary append nor a replica append re-walks a
    written row: both chain the version's own CRC."""
    from repro.storage.checksum import checksum_of
    from repro.txn import wal as wal_module

    env, cluster = rig
    insert_rows(env, cluster, 3)
    protect(env, cluster, k=3)
    rs = cluster.catalog.replica_set_for(kv_partition(cluster).partition_id)
    hashed = []

    def recording(obj):
        hashed.append(obj)
        return checksum_of(obj)

    monkeypatch.setattr(wal_module, "checksum_of", recording)
    insert_rows(env, cluster, 1, start=100)
    row = (100, (100, "v100"))
    assert row not in hashed
    primary = next(r for r in cluster.worker(1).wal.records
                   if r.kind == "insert" and r.payload[1] == 100)
    assert primary.row_crc == checksum_of(row)
    for replica in rs.replicas:
        shipped = next(r for r in replica.log.records
                       if r.kind == "insert" and r.payload[1] == 100)
        assert shipped.row_crc == primary.row_crc
        assert shipped.verified


def test_abort_discards_buffered_records(rig):
    env, cluster = rig
    insert_rows(env, cluster, 3)
    protect(env, cluster, k=2)
    rs = cluster.catalog.replica_set_for(kv_partition(cluster).partition_id)
    before = len(rs.replicas[0].log.records)

    def losing():
        txn = cluster.txns.begin()
        yield from cluster.master.insert("kv", (500, "loser"), txn)
        cluster.txns.abort(txn)

    run(env, losing())
    assert len(rs.replicas[0].log.records) == before


def test_read_only_commit_ships_nothing(rig):
    env, cluster = rig
    insert_rows(env, cluster, 3)
    manager = protect(env, cluster, k=2)

    def reader():
        txn = cluster.txns.begin()
        row = yield from cluster.master.read("kv", 1, txn)
        assert row is not None
        yield from cluster.txns.commit(txn)

    run(env, reader())
    assert manager.commits_shipped == 0


def test_write_logged_before_protection_is_shipped(rig):
    """The ship decision is taken per partition at commit, from the
    redo the transaction carries: a write logged while its partition
    had no replica set yet (fresh scale-out, just-promoted copy) still
    reaches the replica the commit is acknowledged against — seeding
    copies committed rows only, so nothing else would bring it over."""
    env, cluster = rig
    manager = ReplicationManager(
        cluster, k=2, policy=PlacementPolicy(cluster, rack_width=2))

    def work():
        txn = cluster.txns.begin()
        yield from cluster.master.insert("kv", (1, "early"), txn)
        yield from manager.protect_all()
        yield from cluster.master.insert("kv", (2, "late"), txn)
        yield from cluster.txns.commit(txn)

    run(env, work())
    rs = cluster.catalog.replica_set_for(kv_partition(cluster).partition_id)
    replica = rs.replicas[0]
    assert sorted(replica.rows) == [1, 2]
    # ... and promotion, which replays the log, finds both too.
    replayed = sorted(op.payload[1]
                      for op in replica.log.committed_ops_since()
                      if op.txn_id > 0)
    assert replayed == [1, 2]


def test_horizon_pins_redo_until_shipping_starts(rig):
    """``acked_horizon`` / ``replication_lag`` across one transaction's
    life: nothing pinned at begin, the first data record pinned from
    the write through the local log force, released the moment the
    redo is handed to the shipping stage, and still released at ack."""
    env, cluster = rig
    insert_rows(env, cluster, 3)
    manager = protect(env, cluster, k=2)
    owner = cluster.workers[1]
    wal = owner.wal

    def view():
        return (manager.acked_horizon(owner.node_id),
                manager.replication_lag(owner.node_id))

    txn = cluster.txns.begin()
    assert view() == (None, 0)

    def write():
        yield from cluster.master.insert("kv", (50, "a"), txn)
        yield from cluster.master.insert("kv", (51, "b"), txn)

    run(env, write())
    first = min(r.lsn for r in wal.records if r.txn_id == txn.txn_id)
    assert wal.tail.lsn == first + 1
    assert view() == (first, 1)
    # Only the primary's node is pinned.
    assert manager.acked_horizon(cluster.workers[2].node_id) is None

    env.process(cluster.txns.commit(txn), name="committer")
    step_until(env, lambda: wal.tail.kind == "commit", dt=1e-6)
    commit_lsn = wal.tail.lsn
    assert wal.flushed_lsn < commit_lsn, "local force must be in flight"
    assert view() == (first, 2)

    step_until(env, lambda: wal.flushed_lsn >= commit_lsn, dt=1e-6)
    assert txn.state is TxnState.ACTIVE, "shipping must be in flight"
    assert view() == (None, 0)

    step_until(env, lambda: txn.state is TxnState.COMMITTED)
    assert view() == (None, 0)
    assert manager.commits_shipped == 1


def test_horizon_skips_redo_no_replica_waits_for(rig):
    """Redo on a partition with no replica set, or with a set whose
    replicas are all gone, pins nothing; once a replica waits for it,
    the same redo pins its first LSN."""
    env, cluster = rig
    insert_rows(env, cluster, 3)
    owner = cluster.workers[1]
    manager = ReplicationManager(
        cluster, k=2, policy=PlacementPolicy(cluster, rack_width=2))
    txn = cluster.txns.begin()
    run(env, cluster.master.insert("kv", (50, "a"), txn))
    assert manager.acked_horizon(owner.node_id) is None

    run(env, manager.protect_all())
    first = min(r.lsn for r in owner.wal.records if r.txn_id == txn.txn_id)
    assert manager.acked_horizon(owner.node_id) == first

    cluster.catalog.replica_set_for(
        kv_partition(cluster).partition_id).replicas.clear()
    assert manager.acked_horizon(owner.node_id) is None


def test_factor_degrades_without_doubling_up(rig):
    env, cluster = rig
    insert_rows(env, cluster, 3)
    # Only 4 nodes; ask for k=6: at most 3 distinct holders exist.
    protect(env, cluster, k=6)
    rs = cluster.catalog.replica_set_for(kv_partition(cluster).partition_id)
    holders = [r.holder_node_id for r in rs.replicas]
    assert len(holders) == len(set(holders)) == 3


def test_unreachable_holder_goes_stale_commit_succeeds(rig):
    env, cluster = rig
    insert_rows(env, cluster, 4)
    manager = protect(env, cluster, k=2)
    rs = cluster.catalog.replica_set_for(kv_partition(cluster).partition_id)
    holder_id = rs.replicas[0].holder_node_id
    cluster.worker(holder_id).machine.crash()
    insert_rows(env, cluster, 4, start=200)  # commit must not fail
    assert rs.replicas[0].stale is True
    assert manager.ship_failures >= 1
    assert rs.best_replica(cluster) is None


def test_reprotect_prunes_stale_and_reseeds(rig):
    env, cluster = rig
    insert_rows(env, cluster, 4)
    manager = protect(env, cluster, k=2)
    partition = kv_partition(cluster)
    rs = cluster.catalog.replica_set_for(partition.partition_id)
    first_holder = rs.replicas[0].holder_node_id
    cluster.worker(first_holder).machine.crash()
    insert_rows(env, cluster, 4, start=300)  # marks the replica stale
    run(env, manager.protect_partition(partition))
    assert len(rs.replicas) == 1
    assert rs.replicas[0].holder_node_id != first_holder
    assert not rs.replicas[0].stale


def test_k1_registers_no_replicas(rig):
    env, cluster = rig
    insert_rows(env, cluster, 3)
    protect(env, cluster, k=1)
    rs = cluster.catalog.replica_set_for(kv_partition(cluster).partition_id)
    assert rs is not None and rs.replicas == []
    assert rs.best_replica(cluster) is None
