"""Shared rig for the read-tier tests: a small all-active cluster with
a replicated key-value table and a :class:`~repro.reads.ReadTier`
installed on the master."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.ha.placement import PlacementPolicy
from repro.ha.replication import ReplicationManager
from repro.reads import ReadTier


KV_SCHEMA = Schema([Column("id"), Column("v", "str", width=32)], key=("id",))


def small_cluster():
    env = Environment(seed=17)
    cluster = Cluster(env, node_count=4, initially_active=4,
                      buffer_pages_per_node=256, segment_max_pages=16,
                      page_bytes=2048, lock_timeout=2.0)
    return env, cluster


@pytest.fixture()
def rig():
    env, cluster = small_cluster()
    cluster.master.create_table("kv", KV_SCHEMA, owner=cluster.workers[1])
    return env, cluster


def run(env, gen):
    return env.run(until=env.process(gen))


def insert_rows(env, cluster, n, start=0):
    def work():
        txn = cluster.txns.begin()
        for i in range(start, start + n):
            yield from cluster.master.insert("kv", (i, "v%03d" % i), txn)
        yield from cluster.txns.commit(txn)

    run(env, work())


def protect(env, cluster, k=2, rack_width=2):
    manager = ReplicationManager(
        cluster, k=k, policy=PlacementPolicy(cluster, rack_width=rack_width)
    )
    run(env, manager.protect_all())
    return manager


def install_tier(cluster, replication):
    return ReadTier(cluster, replication)


def read_only_txn(cluster):
    return cluster.txns.begin(read_only=True)
