"""Integration tests: cluster assembly and the routed access layer."""

import pytest

from repro import Cluster, Column, Environment, KeyRange, Schema


def small_cluster(node_count=4, initially_active=2, buffer_pages=256):
    env = Environment()
    cluster = Cluster(
        env, node_count=node_count, initially_active=initially_active,
        buffer_pages_per_node=buffer_pages, segment_max_pages=64,
    )
    return env, cluster


def simple_schema():
    return Schema([Column("id"), Column("v", "str", width=32)], key=("id",))


def run(env, gen):
    return env.run(until=env.process(gen))


def test_cluster_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Cluster(env, node_count=0)
    with pytest.raises(ValueError):
        Cluster(env, node_count=2, initially_active=3)


def test_cluster_construction():
    env, cluster = small_cluster()
    assert len(cluster.workers) == 4
    assert cluster.active_node_count == 2
    assert len(cluster.standby_workers()) == 2
    assert cluster.master.worker is cluster.workers[0]
    assert cluster.current_watts() > 0


def test_worker_lookup():
    env, cluster = small_cluster()
    assert cluster.worker(1).node_id == 1
    with pytest.raises(KeyError):
        cluster.worker(99)


def test_create_table_registers_partition():
    env, cluster = small_cluster()
    partition = cluster.master.create_table(
        "kv", simple_schema(), owner=cluster.workers[0]
    )
    assert partition.partition_id in cluster.workers[0].partitions
    location = cluster.master.gpt.locate("kv", 123)
    assert location.node_id == 0


def test_insert_then_read_roundtrip():
    env, cluster = small_cluster()
    master = cluster.master
    master.create_table("kv", simple_schema(), owner=cluster.workers[0])
    results = {}

    def work():
        txn = cluster.txns.begin()
        yield from master.plan()
        yield from master.insert("kv", (1, "hello"), txn)
        yield from master.insert("kv", (2, "world"), txn)
        yield from cluster.txns.commit(txn)

        reader = cluster.txns.begin()
        results["r1"] = yield from master.read("kv", 1, reader)
        results["r2"] = yield from master.read("kv", 2, reader)
        results["r3"] = yield from master.read("kv", 3, reader)
        yield from cluster.txns.commit(reader)

    run(env, work())
    assert results["r1"] == (1, "hello")
    assert results["r2"] == (2, "world")
    assert results["r3"] is None


def test_update_and_delete_roundtrip():
    env, cluster = small_cluster()
    master = cluster.master
    master.create_table("kv", simple_schema(), owner=cluster.workers[0])
    results = {}

    def work():
        txn = cluster.txns.begin()
        yield from master.insert("kv", (1, "v1"), txn)
        yield from cluster.txns.commit(txn)

        txn = cluster.txns.begin()
        yield from master.update("kv", 1, (1, "v2"), txn)
        yield from cluster.txns.commit(txn)

        txn = cluster.txns.begin()
        results["after_update"] = yield from master.read("kv", 1, txn)
        yield from master.delete("kv", 1, txn)
        yield from cluster.txns.commit(txn)

        txn = cluster.txns.begin()
        results["after_delete"] = yield from master.read("kv", 1, txn)
        yield from cluster.txns.commit(txn)

    run(env, work())
    assert results["after_update"] == (1, "v2")
    assert results["after_delete"] is None


def test_read_on_remote_partition_costs_network_hop():
    """A partition owned by node 1 is reached via an RPC from the
    master; the cost lands in the breakdown's network bucket."""
    from repro.metrics import CostBreakdown

    env, cluster = small_cluster()
    master = cluster.master
    master.create_table("kv", simple_schema(), owner=cluster.workers[1])
    breakdown = CostBreakdown()

    def work():
        txn = cluster.txns.begin()
        txn.breakdown = breakdown
        yield from master.insert("kv", (7, "x"), txn)
        yield from cluster.txns.commit(txn)

    run(env, work())
    assert breakdown.network_io > 0


def _insert_in_one_transaction(env, cluster, rows):
    def work():
        txn = cluster.txns.begin()
        for row in rows:
            yield from cluster.master.insert("kv", row, txn)
        yield from cluster.txns.commit(txn)

    run(env, work())


def _bulk_load(env, cluster, rows):
    cluster.master.bulk_load("kv", rows)


@pytest.mark.parametrize("load", [_insert_in_one_transaction, _bulk_load],
                         ids=["transactional", "bulk"])
@pytest.mark.parametrize("keys", [
    list(range(400)),
    # Evens first: every odd key then lands in a full segment below
    # its maximum, which a median split must route to either half.
    list(range(0, 400, 2)) + list(range(1, 400, 2)),
], ids=["ascending", "unsorted"])
def test_inserts_spill_across_segments(load, keys):
    env = Environment()
    cluster = Cluster(env, node_count=4, initially_active=2,
                      buffer_pages_per_node=256, segment_max_pages=2,
                      page_bytes=1024)
    cluster.master.create_table("kv", simple_schema(),
                                owner=cluster.workers[0])
    partition = list(cluster.workers[0].partitions.values())[0]

    load(env, cluster, [(i, "x" * 30) for i in keys])
    assert partition.record_count == len(keys)
    assert partition.segment_count > 1
    misplaced = [key for key in keys
                 if not partition.segment_for(key).versions_for(key)]
    assert misplaced == []


def test_split_full_segment_after_vacuum_emptied_its_tail():
    """Vacuum reclaims the highest keys of a segment, leaving the
    index's rightmost leaves empty (B+-tree deletes are lazy).  The
    tail split must still find the highest *live* key instead of dying
    on the empty leaf."""
    from repro.txn import mvcc

    env, cluster = small_cluster()
    master = cluster.master
    master.create_table("kv", simple_schema(), owner=cluster.workers[0])
    partition = list(cluster.workers[0].partitions.values())[0]

    def work():
        txn = cluster.txns.begin()
        for i in range(300):
            yield from master.insert("kv", (i, "x"), txn)
        yield from cluster.txns.commit(txn)
        txn = cluster.txns.begin()
        for i in range(100, 300):
            yield from master.delete("kv", i, txn)
        yield from cluster.txns.commit(txn)

    run(env, work())
    (segment,) = partition.segments.values()
    assert mvcc.vacuum(segment, cluster.txns.oldest_active_begin_ts()) == 200
    assert segment.max_key() == 99

    fresh = partition.split_full_segment(segment, pending_key=100)
    assert partition.segment_for(99) is segment
    assert partition.segment_for(100) is fresh


def test_power_off_requires_empty_node():
    env, cluster = small_cluster()
    master = cluster.master
    master.create_table("kv", simple_schema(), owner=cluster.workers[1])
    worker1 = cluster.workers[1]
    partition = list(worker1.partitions.values())[0]
    segment = partition.new_segment(KeyRange(None, None))
    worker1.host_segment(segment)

    def work():
        yield from cluster.power_off(1)

    with pytest.raises(Exception):
        run(env, work())


def test_master_cannot_power_off():
    env, cluster = small_cluster()

    def work():
        yield from cluster.power_off(0)

    with pytest.raises(Exception):
        run(env, work())


def test_power_on_off_cycle_changes_active_count():
    env, cluster = small_cluster(node_count=3, initially_active=1)

    def work():
        yield from cluster.power_on(1)
        assert cluster.active_node_count == 2
        yield from cluster.power_off(1)

    run(env, work())
    assert cluster.active_node_count == 1


def test_energy_accumulates():
    env, cluster = small_cluster()

    def clock():
        yield env.timeout(100)

    run(env, clock())
    assert cluster.energy_joules() > 0
