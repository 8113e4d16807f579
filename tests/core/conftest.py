"""Shared fixture: a loaded cluster ready for migration experiments."""

import pytest

from repro import Cluster, Column, Environment, Schema


@pytest.fixture()
def migration_cluster():
    """Four nodes (2 active), one table with 400 rows on node 0, laid
    out across several small segments."""
    env = Environment()
    cluster = Cluster(
        env, node_count=4, initially_active=2,
        buffer_pages_per_node=512, segment_max_pages=8, page_bytes=1024,
    )
    schema = Schema(
        [Column("id"), Column("v", "str", width=40)],
        key=("id",),
    )
    master = cluster.master
    master.create_table("kv", schema, owner=cluster.workers[0])

    def load():
        for start in range(0, 400, 50):
            txn = cluster.txns.begin()
            for i in range(start, start + 50):
                yield from master.insert("kv", (i, "payload-%04d" % i), txn)
            yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    return env, cluster


def read_all(env, cluster, keys=range(400)):
    """Read every key through master routing; returns missing keys."""
    missing = []

    def check():
        txn = cluster.txns.begin()
        for key in keys:
            row = yield from cluster.master.read("kv", key, txn)
            if row is None or row[0] != key:
                missing.append(key)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(check()))
    return missing
