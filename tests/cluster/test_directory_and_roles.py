"""Tests for the segment directory, disk-role assignment, and the
remote page-access path (physical partitioning's substrate)."""

import pytest

from repro import Cluster, Column, Environment, KeyRange, Schema
from repro.cluster.cluster import SegmentDirectory
from repro.hardware import Disk, HDD_SPEC, SSD_SPEC
from repro.cluster.worker import WorkerNode
from repro.storage import Segment


class TestSegmentDirectory:
    def test_register_and_locate(self):
        env = Environment()
        directory = SegmentDirectory()
        disk = Disk(env, SSD_SPEC)
        directory.register(1, "worker-a", disk)
        assert directory.location(1) == ("worker-a", disk)
        assert 1 in directory
        assert 2 not in directory

    def test_double_register_rejected(self):
        env = Environment()
        directory = SegmentDirectory()
        disk = Disk(env, SSD_SPEC)
        directory.register(1, "a", disk)
        with pytest.raises(ValueError):
            directory.register(1, "b", disk)

    def test_unregister(self):
        env = Environment()
        directory = SegmentDirectory()
        disk = Disk(env, SSD_SPEC)
        directory.register(1, "a", disk)
        directory.unregister(1)
        assert 1 not in directory
        with pytest.raises(KeyError):
            directory.unregister(1)
        with pytest.raises(KeyError):
            directory.location(1)


class TestDiskRoles:
    def test_hdd_becomes_log_disk(self):
        data, log = WorkerNode._assign_disk_roles(
            [_disk(HDD_SPEC), _disk(SSD_SPEC), _disk(SSD_SPEC)]
        )
        assert log.spec.kind == "hdd"
        assert all(d.spec.kind == "ssd" for d in data)
        assert len(data) == 2

    def test_single_disk_shares_roles(self):
        only = _disk(HDD_SPEC)
        data, log = WorkerNode._assign_disk_roles([only])
        assert log is only
        assert data == [only]

    def test_all_ssd_first_is_log(self):
        disks = [_disk(SSD_SPEC), _disk(SSD_SPEC)]
        data, log = WorkerNode._assign_disk_roles(disks)
        assert log is disks[0]
        assert data == disks

    def test_no_disks_rejected(self):
        with pytest.raises(ValueError):
            WorkerNode._assign_disk_roles([])


def _disk(spec):
    return Disk(Environment(), spec)


class TestRemotePageAccess:
    """Physical partitioning's access path: pages hosted on another node
    are fetched over the network and cost more than local pages."""

    def make(self):
        env = Environment()
        cluster = Cluster(env, node_count=2, initially_active=2,
                          buffer_pages_per_node=64, segment_max_pages=8,
                          page_bytes=2048)
        schema = Schema([Column("id"), Column("v", "str", width=32)],
                        key=("id",))
        cluster.master.create_table("kv", schema, owner=cluster.workers[0])

        def load():
            txn = cluster.txns.begin()
            for i in range(40):
                yield from cluster.master.insert("kv", (i, "x" * 20), txn)
            yield from cluster.txns.commit(txn)

        env.run(until=env.process(load()))
        return env, cluster

    def test_remote_read_costs_more_than_local(self):
        from repro.core import MoveReport, ship_segment

        env, cluster = self.make()
        worker0, worker1 = cluster.workers[0], cluster.workers[1]
        partition = list(worker0.partitions.values())[0]
        segment = list(partition.segments.values())[0]

        def timed_read():
            txn = cluster.txns.begin()
            t0 = env.now
            row = yield from worker0.read_record(partition, 0, txn)
            elapsed = yield from _finish(cluster, txn, env, t0)
            return row, elapsed

        def _finish(cluster, txn, env, t0):
            elapsed = env.now - t0
            yield from cluster.txns.commit(txn)
            return elapsed

        row, local_time = env.run(until=env.process(timed_read()))
        assert row is not None

        # Move the extent to node 1; ownership stays with node 0, whose
        # cache goes cold so the next read goes remote.
        def move():
            yield from ship_segment(cluster, segment, worker0, worker1,
                                    MoveReport("physical", "kv", 0, 1))

        env.run(until=env.process(move()))
        assert cluster.directory.location(segment.segment_id)[0] is worker1

        row, remote_time = env.run(until=env.process(timed_read()))
        assert row is not None
        assert remote_time > local_time
        # Node 0 received the page over the wire.
        assert worker0.port.bytes_received > 0
