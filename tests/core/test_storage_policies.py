"""Tests for the storage-side policies of Sect. 3.4: local disk
balancing and the out-of-space protocol."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.cluster import PolicyThresholds, ThresholdPolicy
from repro.core import (
    PhysiologicalPartitioning,
    Rebalancer,
    balance_local_disks,
    move_extent_local,
)
from repro.hardware import SSD_SPEC
from repro.hardware.disk import DiskFailedError, DiskSpec
from repro.storage.disk_space import OutOfDiskSpaceError
from repro.traffic import Autoscaler, AutoscalerConfig
from repro.workload.tpcc_gen import fast_insert

SCHEMA = Schema([Column("id"), Column("v", "str", width=40)], key=("id",))


def build(disk_specs, segment_max_pages=2, node_count=2, active=2):
    env = Environment()
    cluster = Cluster(env, node_count=node_count, initially_active=active,
                      disk_specs=disk_specs,
                      buffer_pages_per_node=256,
                      segment_max_pages=segment_max_pages, page_bytes=1024)
    cluster.master.create_table("kv", SCHEMA, owner=cluster.workers[0])
    partition = list(cluster.workers[0].partitions.values())[0]
    return env, cluster, partition


class TestLocalDiskBalancing:
    def test_move_extent_local(self):
        env, cluster, partition = build((SSD_SPEC, SSD_SPEC, SSD_SPEC))
        worker = cluster.workers[0]
        for i in range(30):
            fast_insert(worker, partition, (i, "x" * 30))
        segment = next(iter(partition.segments.values()))
        source = worker.disk_space.disk_of(segment.segment_id)
        target = next(d for d in worker.disk_space.disks if d is not source)

        def go():
            nbytes = yield from move_extent_local(
                cluster, worker, segment, target
            )
            return nbytes

        nbytes = env.run(until=env.process(go()))
        assert nbytes > 0
        assert worker.disk_space.disk_of(segment.segment_id) is target
        assert cluster.directory.location(segment.segment_id)[1] is target
        # Moving to the same disk is a no-op.
        again = env.run(until=env.process(go()))
        assert again == 0

    def test_balance_local_disks_evens_extents(self):
        env, cluster, partition = build((SSD_SPEC, SSD_SPEC, SSD_SPEC))
        worker = cluster.workers[0]
        # Load everything, then cram all extents onto one disk.
        for i in range(200):
            fast_insert(worker, partition, (i, "x" * 30))
        crowded = worker.disk_space.disks[0]
        segments = list(partition.segments.values())

        def cram():
            for segment in segments:
                if worker.disk_space.disk_of(segment.segment_id) is not crowded:
                    yield from move_extent_local(
                        cluster, worker, segment, crowded
                    )

        env.run(until=env.process(cram()))
        per_disk_before = [
            worker.disk_space.used_bytes(d) for d in worker.disk_space.disks
        ]
        assert per_disk_before.count(0) == len(per_disk_before) - 1

        def balance():
            moves = yield from balance_local_disks(cluster, worker,
                                                   max_moves=32)
            return moves

        moves = env.run(until=env.process(balance()))
        assert moves >= 2
        used = [worker.disk_space.used_bytes(d)
                for d in worker.disk_space.disks]
        extent = segments[0].extent_bytes
        assert max(used) - min(used) <= extent

    def test_balance_single_disk_is_noop(self):
        env, cluster, partition = build((SSD_SPEC,))
        worker = cluster.workers[0]
        fast_insert(worker, partition, (1, "x"))

        def balance():
            moves = yield from balance_local_disks(cluster, worker)
            return moves

        assert env.run(until=env.process(balance())) == 0


class TestLocalMovesUnderFaults:
    """Local extent moves against failed and full disks: the policy
    must refuse cleanly, never strand a segment halfway."""

    def test_move_to_failed_disk_is_refused_before_any_io(self):
        env, cluster, partition = build((SSD_SPEC, SSD_SPEC, SSD_SPEC))
        worker = cluster.workers[0]
        for i in range(30):
            fast_insert(worker, partition, (i, "x" * 30))
        segment = next(iter(partition.segments.values()))
        source = worker.disk_space.disk_of(segment.segment_id)
        target = next(d for d in worker.disk_space.disks if d is not source)
        target.fail()
        io_before = source.io_count + target.io_count

        def go():
            yield from move_extent_local(cluster, worker, segment, target)

        with pytest.raises(DiskFailedError):
            env.run(until=env.process(go()))
        # Refused up front: no copy I/O spent, no metadata touched.
        assert source.io_count + target.io_count == io_before
        assert worker.disk_space.disk_of(segment.segment_id) is source
        assert cluster.directory.location(segment.segment_id)[1] is source

    def test_failed_source_disk_surfaces_before_metadata_changes(self):
        env, cluster, partition = build((SSD_SPEC, SSD_SPEC))
        worker = cluster.workers[0]
        for i in range(30):
            fast_insert(worker, partition, (i, "x" * 30))
        segment = next(iter(partition.segments.values()))
        source = worker.disk_space.disk_of(segment.segment_id)
        target = next(d for d in worker.disk_space.disks if d is not source)
        source.fail()

        def go():
            yield from move_extent_local(cluster, worker, segment, target)

        with pytest.raises(DiskFailedError):
            env.run(until=env.process(go()))
        # The copy read failed, so placement and directory still agree
        # on the (dead) source — recovery's business, not the mover's.
        assert worker.disk_space.disk_of(segment.segment_id) is source
        assert cluster.directory.location(segment.segment_id)[1] is source

    def test_move_to_full_disk_is_refused_up_front(self):
        env, cluster, partition = build((tiny_disk(4), tiny_disk(1)))
        worker = cluster.workers[0]
        for i in range(60):
            fast_insert(worker, partition, (i, "x" * 30))
        big, small = worker.disk_space.disks
        on_big = [
            partition.segments[seg_id]
            for seg_id, disk in worker.disk_space.placements()
            if disk is big
        ]
        assert len(on_big) >= 2
        filler, refused = on_big[0], on_big[1]

        def fill():
            yield from move_extent_local(cluster, worker, filler, small)

        env.run(until=env.process(fill()))
        assert worker.disk_space.free_bytes(small) < refused.extent_bytes
        io_before = big.io_count + small.io_count

        def go():
            yield from move_extent_local(cluster, worker, refused, small)

        with pytest.raises(OutOfDiskSpaceError):
            env.run(until=env.process(go()))
        assert big.io_count + small.io_count == io_before
        assert worker.disk_space.disk_of(refused.segment_id) is big
        assert cluster.directory.location(refused.segment_id)[1] is big

    def test_balance_skips_failed_disks(self):
        env, cluster, partition = build((SSD_SPEC, SSD_SPEC, SSD_SPEC))
        worker = cluster.workers[0]
        for i in range(200):
            fast_insert(worker, partition, (i, "x" * 30))
        crowded = worker.disk_space.disks[0]
        segments = list(partition.segments.values())

        def cram():
            for segment in segments:
                if worker.disk_space.disk_of(segment.segment_id) is not crowded:
                    yield from move_extent_local(
                        cluster, worker, segment, crowded
                    )

        env.run(until=env.process(cram()))
        dead = worker.disk_space.disks[1]
        survivor = worker.disk_space.disks[2]
        dead.fail()

        def balance():
            moves = yield from balance_local_disks(cluster, worker,
                                                   max_moves=32)
            return moves

        moves = env.run(until=env.process(balance()))
        assert moves >= 1
        # Extents spread over the two healthy disks only.
        assert worker.disk_space.used_bytes(dead) == 0
        extent = segments[0].extent_bytes
        spread = abs(worker.disk_space.used_bytes(crowded)
                     - worker.disk_space.used_bytes(survivor))
        assert spread <= extent

    def test_balance_stops_when_only_one_healthy_disk_remains(self):
        env, cluster, partition = build((SSD_SPEC, SSD_SPEC))
        worker = cluster.workers[0]
        for i in range(60):
            fast_insert(worker, partition, (i, "x" * 30))
        worker.disk_space.disks[1].fail()

        def balance():
            moves = yield from balance_local_disks(cluster, worker)
            return moves

        assert env.run(until=env.process(balance())) == 0


def tiny_disk(capacity_extents, segment_max_pages=2, page_bytes=1024):
    return DiskSpec(
        kind="ssd", access_seconds=SSD_SPEC.access_seconds,
        bandwidth_bytes_per_s=SSD_SPEC.bandwidth_bytes_per_s,
        capacity_bytes=capacity_extents * segment_max_pages * page_bytes,
        idle_watts=0.3, active_watts=0.4,
    )


class TestOutOfSpaceProtocol:
    def test_policy_flags_space_pressure(self):
        env, cluster, partition = build((tiny_disk(10),))
        worker = cluster.workers[0]
        for i in range(200):  # ~9 of 10 extents
            fast_insert(worker, partition, (i, "x" * 30))
        sample = cluster.monitor.sample_node(worker)
        assert sample.storage_used_fraction > 0.85
        policy = ThresholdPolicy(PolicyThresholds(consecutive_samples=1,
                                                  storage_upper=0.8))
        decision = policy.observe([sample])
        assert decision.wants_space_relief

    def test_control_loop_relieves_space_pressure(self):
        env, cluster, partition = build(
            (tiny_disk(10),), node_count=2, active=2
        )
        worker = cluster.workers[0]
        for i in range(200):
            fast_insert(worker, partition, (i, "x" * 30))
        loop = Autoscaler(
            cluster, Rebalancer(cluster, PhysiologicalPartitioning()),
            ["kv"], admission=None,
            policy=ThresholdPolicy(PolicyThresholds(consecutive_samples=1,
                                                    storage_upper=0.8)),
            config=AutoscalerConfig(interval=3.0),
        )
        env.process(loop.run(until=30.0))
        env.run(until=30.0)
        sample = cluster.monitor.sample_node(worker)
        # Half the data went to the node with free space.
        assert sample.storage_used_fraction < 0.7
        assert len(cluster.workers[1].partitions) >= 1

        # And everything is still readable.
        missing = []

        def verify():
            txn = cluster.txns.begin()
            for i in range(200):
                row = yield from cluster.master.read("kv", i, txn)
                if row is None:
                    missing.append(i)
            yield from cluster.txns.commit(txn)

        env.run(until=env.process(verify()))
        assert missing == []
