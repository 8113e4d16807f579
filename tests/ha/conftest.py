"""Shared rig for the HA tests: a small all-active cluster with a
key-value table owned by a non-master node."""

import pytest

from repro import Cluster, Column, Environment, Schema


@pytest.fixture()
def rig():
    env = Environment(seed=11)
    cluster = Cluster(env, node_count=4, initially_active=4,
                      buffer_pages_per_node=256, segment_max_pages=16,
                      page_bytes=2048, lock_timeout=2.0)
    schema = Schema([Column("id"), Column("v", "str", width=32)], key=("id",))
    cluster.master.create_table("kv", schema, owner=cluster.workers[1])
    return env, cluster


def run(env, gen):
    return env.run(until=env.process(gen))


def step_until(env, condition, dt=0.0005, limit=60.0):
    """Advance the clock in ``dt`` steps until ``condition()`` holds —
    for landing inside a commit's in-flight windows."""
    deadline = env.now + limit
    while not condition():
        if env.now >= deadline:
            raise AssertionError("condition never became true")
        env.run(until=env.now + dt)


def insert_rows(env, cluster, n, start=0):
    def work():
        txn = cluster.txns.begin()
        for i in range(start, start + n):
            yield from cluster.master.insert("kv", (i, "v%03d" % i), txn)
        yield from cluster.txns.commit(txn)

    run(env, work())
