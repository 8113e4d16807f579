"""Shared fixtures: a loaded two-node cluster for operator tests."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.engine import ExecContext


@pytest.fixture()
def loaded():
    """A cluster with a 200-row table owned by node 0, plus node 1 up."""
    env = Environment()
    cluster = Cluster(
        env, node_count=3, initially_active=2,
        buffer_pages_per_node=512, segment_max_pages=64,
    )
    schema = Schema(
        [Column("id"), Column("grp"), Column("val", "float"),
         Column("pad", "str", width=40)],
        key=("id",),
    )
    master = cluster.master
    master.create_table("items", schema, owner=cluster.workers[0])

    def load():
        txn = cluster.txns.begin()
        for i in range(200):
            yield from master.insert(
                "items", (i, i % 5, float(i), "x" * 20), txn
            )
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    worker = cluster.workers[0]
    partition = list(worker.partitions.values())[0]
    return env, cluster, worker, partition


def make_ctx(env, vector_size=64, txn=None):
    return ExecContext(env=env, txn=txn, vector_size=vector_size)
