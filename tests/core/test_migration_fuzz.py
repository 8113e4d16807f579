"""Migration fuzz: random client traffic races a random scheme's
migration; afterwards every committed record is accounted for.

This is the paper's correctness claim ("Dynamic data migration must not
alter the result of concurrent queries") driven with randomized
workloads instead of hand-picked interleavings.
"""

import random

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.core import (
    LogicalPartitioning,
    PhysicalPartitioning,
    PhysiologicalPartitioning,
)
from repro.errors import TransientError

ROWS = 240


def build(seed):
    env = Environment()
    cluster = Cluster(env, node_count=4, initially_active=2,
                      buffer_pages_per_node=512, segment_max_pages=4,
                      page_bytes=1024, lock_timeout=1.0)
    schema = Schema([Column("id"), Column("v", "str", width=40)], key=("id",))
    cluster.master.create_table("kv", schema, owner=cluster.workers[0])

    def load():
        txn = cluster.txns.begin()
        for i in range(ROWS):
            yield from cluster.master.insert("kv", (i, "base"), txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    return env, cluster


SCHEMES = {
    "physical": PhysicalPartitioning,
    "logical": LogicalPartitioning,
    "physiological": PhysiologicalPartitioning,
}


@pytest.mark.parametrize("scheme_name", list(SCHEMES))
@pytest.mark.parametrize("seed", [3, 17])
def test_fuzz_random_traffic_during_migration(scheme_name, seed):
    rng = random.Random(seed)
    env, cluster = build(seed)
    master = cluster.master
    # The oracle: committed value per key (None = deleted).
    oracle = {i: "base" for i in range(ROWS)}
    inserted_max = [ROWS - 1]
    migration_done = env.event()

    def client(client_id):
        step = 0
        while not migration_done.triggered:
            step += 1
            txn = cluster.txns.begin()
            op = rng.random()
            try:
                if op < 0.5:  # read
                    key = rng.randrange(ROWS)
                    row = yield from master.read("kv", key, txn)
                    expected = oracle.get(key)
                    if expected is not None:
                        assert row is not None, (key, "lost")
                    yield from cluster.txns.commit(txn)
                elif op < 0.8:  # update
                    key = rng.randrange(ROWS)
                    if oracle.get(key) is None:
                        cluster.txns.abort(txn)
                    else:
                        value = f"c{client_id}-{step}"
                        yield from master.update("kv", key, (key, value), txn)
                        yield from cluster.txns.commit(txn)
                        oracle[key] = value
                elif op < 0.9:  # insert a fresh key
                    key = inserted_max[0] + 1
                    inserted_max[0] = key
                    yield from master.insert("kv", (key, "new"), txn)
                    yield from cluster.txns.commit(txn)
                    oracle[key] = "new"
                else:  # delete
                    key = rng.randrange(ROWS)
                    if oracle.get(key) is None:
                        cluster.txns.abort(txn)
                    else:
                        yield from master.delete("kv", key, txn)
                        yield from cluster.txns.commit(txn)
                        oracle[key] = None
            except TransientError:
                if txn.state.value == "active":
                    cluster.txns.abort(txn)
            yield env.timeout(rng.random() * 0.1)

    def mover():
        scheme = SCHEMES[scheme_name]()
        yield from cluster.power_on(2)
        yield from cluster.power_on(3)
        yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0],
            [cluster.worker(2), cluster.worker(3)], 0.5,
        )
        migration_done.succeed()

    for client_id in range(3):
        env.process(client(client_id))
    env.process(mover())
    env.run(until=migration_done)

    # Drain forwarding pointers / deferred unhosts, then verify the
    # whole oracle against the cluster.
    def settle():
        yield env.timeout(10.0)

    env.run(until=env.process(settle()))
    failures = []

    def verify():
        txn = cluster.txns.begin()
        for key in range(inserted_max[0] + 1):
            expected = oracle.get(key)
            row = yield from master.read("kv", key, txn)
            got = None if row is None else row[1]
            # Client txns that raced the final moment may have landed
            # after our oracle write; only presence/absence must match.
            if (expected is None) != (got is None):
                failures.append((key, expected, got))
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(verify()))
    assert failures == []
