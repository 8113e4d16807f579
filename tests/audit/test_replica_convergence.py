"""The replica-convergence checker: a synchronously shipped replica
replays to exactly the primary's committed contents, and any tampering
with the log is flagged as divergence."""

import dataclasses

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.audit.checkers import check_replica_convergence
from repro.ha.placement import PlacementPolicy
from repro.ha.replication import ReplicationManager

SCHEMA = Schema([Column("id"), Column("v", "str", width=32)], key=("id",))


@pytest.fixture()
def rig():
    env = Environment(seed=11)
    cluster = Cluster(env, node_count=4, initially_active=4,
                      buffer_pages_per_node=256, segment_max_pages=16,
                      page_bytes=2048, lock_timeout=2.0)
    cluster.master.create_table("kv", SCHEMA, owner=cluster.workers[1])

    def run(gen):
        return env.run(until=env.process(gen))

    def work():
        txn = cluster.txns.begin()
        for i in range(10):
            yield from cluster.master.insert("kv", (i, "v%03d" % i), txn)
        yield from cluster.txns.commit(txn)

    run(work())
    manager = ReplicationManager(
        cluster, k=2, policy=PlacementPolicy(cluster, rack_width=2))
    run(manager.protect_all())

    def churn():
        # Updates, a delete, and an aborted txn: the replay must apply
        # committed effects only and drop the tombstoned key.
        txn = cluster.txns.begin()
        for i in range(20, 24):
            yield from cluster.master.insert("kv", (i, "post"), txn)
        yield from cluster.master.update("kv", 3, (3, "updated"), txn)
        yield from cluster.master.delete("kv", 7, txn)
        yield from cluster.txns.commit(txn)
        doomed = cluster.txns.begin()
        yield from cluster.master.update("kv", 4, (4, "never"), doomed)
        cluster.txns.abort(doomed)

    run(churn())
    partition = cluster.workers[1].partitions_for_table("kv")[0]
    replica_set = cluster.catalog.replica_set_for(partition.partition_id)
    assert replica_set is not None and replica_set.replicas
    return env, cluster, replica_set


def shipped_insert(replica):
    return next(r for r in replica.log.records
                if r.kind == "insert" and r.txn_id > 0)


def tamper(replica, values):
    """Rewrite a shipped insert's payload in place (records are frozen,
    so swap the list entry)."""
    records = replica.log.records
    record = shipped_insert(replica)
    table, key, _values = record.payload
    index = next(i for i, r in enumerate(records) if r is record)
    records[index] = dataclasses.replace(
        record, payload=(table, key, values))
    return key


def test_intact_replicas_converge(rig):
    _env, cluster, _rs = rig
    assert check_replica_convergence(cluster) == []


def test_tampered_replica_value_is_divergence(rig):
    _env, cluster, replica_set = rig
    replica = replica_set.replicas[0]
    key = tamper(replica, ("tampered",))
    anomalies = check_replica_convergence(cluster)
    assert anomalies, "tampered replica log went unnoticed"
    assert {a.kind for a in anomalies} == {"replica-divergence"}
    assert any(a.key == key for a in anomalies)


def test_replica_only_key_is_divergence(rig):
    _env, cluster, replica_set = rig
    replica = replica_set.replicas[0]
    committed_txn = shipped_insert(replica).txn_id
    replica.log.append(committed_txn, "insert", ("kv", 999, (999, "ghost")))
    anomalies = check_replica_convergence(cluster)
    assert [a.key for a in anomalies] == [999]
    assert "absent on the primary" in anomalies[0].description


def test_stale_replicas_are_not_compared(rig):
    _env, cluster, replica_set = rig
    replica = replica_set.replicas[0]
    tamper(replica, ("garbage",))
    replica.stale = True
    assert check_replica_convergence(cluster) == []


def test_dead_holders_are_not_compared(rig):
    _env, cluster, replica_set = rig
    replica = replica_set.replicas[0]
    tamper(replica, ("garbage",))
    cluster.worker(replica.holder_node_id).machine.crash()
    assert check_replica_convergence(cluster) == []


def test_absent_primary_partition_is_skipped(rig):
    _env, cluster, replica_set = rig
    primary = cluster.worker(replica_set.primary_node_id)
    del primary.partitions[replica_set.partition_id]
    assert check_replica_convergence(cluster) == []
