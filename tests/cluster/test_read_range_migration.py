"""Range reads: pruning, limits, and correctness while data is split
across both ends of an in-flight migration."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.core import LogicalPartitioning, PhysiologicalPartitioning
from repro.storage.segment import Segment


@pytest.fixture()
def rig():
    env = Environment()
    cluster = Cluster(env, node_count=3, initially_active=2,
                      buffer_pages_per_node=512, segment_max_pages=4,
                      page_bytes=1024, lock_timeout=1.0)
    schema = Schema([Column("id"), Column("v", "str", width=40)], key=("id",))
    cluster.master.create_table("kv", schema, owner=cluster.workers[0])

    def load():
        txn = cluster.txns.begin()
        for i in range(300):
            yield from cluster.master.insert("kv", (i, "r%03d" % i), txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    return env, cluster


def read_range(env, cluster, lo, hi, limit=None):
    def go():
        txn = cluster.txns.begin()
        rows = yield from cluster.master.read_range("kv", lo, hi, txn,
                                                    limit=limit)
        yield from cluster.txns.commit(txn)
        return rows

    return env.run(until=env.process(go()))


def test_basic_range(rig, monkeypatch):
    env, cluster = rig
    scanned = []
    index_scan = Segment.index_scan

    def counting_scan(segment, **bounds):
        scanned.append(segment.segment_id)
        return index_scan(segment, **bounds)

    monkeypatch.setattr(Segment, "index_scan", counting_scan)
    rows = read_range(env, cluster, 100, 110)
    assert [r[0] for r in rows] == list(range(100, 110))
    # Segment pruning: only the segments overlapping [100, 110) are
    # opened, not all of the partition's.
    (partition,) = cluster.workers[0].partitions.values()
    assert 1 <= len(scanned) < partition.segment_count


def test_empty_range_and_reader_snapshot(rig):
    env, cluster = rig
    assert read_range(env, cluster, 5000, 6000) == []

    def insert_then_scan_as_older_reader():
        reader = cluster.txns.begin()
        writer = cluster.txns.begin()
        yield from cluster.master.insert("kv", (500, "new"), writer)
        yield from cluster.txns.commit(writer)
        rows = yield from cluster.master.read_range("kv", 290, 600, reader)
        yield from cluster.txns.commit(reader)
        return rows

    rows = env.run(until=env.process(insert_then_scan_as_older_reader()))
    assert [r[0] for r in rows] == list(range(290, 300))    # no key 500


def test_range_with_limit(rig):
    env, cluster = rig
    rows = read_range(env, cluster, 0, 300, limit=7)
    assert [r[0] for r in rows] == list(range(7))


def test_unbounded_range(rig):
    env, cluster = rig
    rows = read_range(env, cluster, None, None)
    assert len(rows) == 300


def test_range_spanning_migrated_boundary(rig):
    """After a physiological 50% move, a range straddling the split
    point merges rows from both owners in key order."""
    env, cluster = rig

    def migrate():
        yield from cluster.power_on(2)
        scheme = PhysiologicalPartitioning()
        yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0], [cluster.worker(2)], 0.5
        )

    env.run(until=env.process(migrate()))
    owners = {loc.node_id for _r, loc in cluster.master.gpt.partitions("kv")}
    assert owners == {0, 2}
    rows = read_range(env, cluster, 100, 200)
    assert [r[0] for r in rows] == list(range(100, 200))


def test_range_during_logical_move_sees_everything(rig):
    """Range reads issued while the mover is mid-flight never lose
    rows: values may be old or new, but every key is present."""
    env, cluster = rig
    problems = []
    done = env.event()

    def reader():
        while not done.triggered:
            txn = cluster.txns.begin()
            rows = yield from cluster.master.read_range("kv", 140, 160, txn)
            keys = [r[0] for r in rows]
            if keys != list(range(140, 160)):
                problems.append((env.now, keys))
            yield from cluster.txns.commit(txn)
            yield env.timeout(0.2)

    def mover():
        yield from cluster.power_on(2)
        scheme = LogicalPartitioning()
        yield from scheme.migrate_fraction(
            cluster, "kv", cluster.workers[0], [cluster.worker(2)], 0.5
        )
        done.succeed()

    env.process(reader())
    env.process(mover())
    env.run(until=done)
    assert problems == []
