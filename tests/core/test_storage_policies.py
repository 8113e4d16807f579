"""Tests for the storage-side policy of Sect. 3.4: the out-of-space
protocol."""

from repro import Cluster, Column, Environment, Schema
from repro.cluster import PolicyThresholds, ThresholdPolicy
from repro.core import PhysiologicalPartitioning, Rebalancer
from repro.hardware import SSD_SPEC
from repro.hardware.disk import DiskSpec
from repro.traffic import Autoscaler, AutoscalerConfig

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
        # ~9 of 10 extents
        cluster.master.bulk_load("kv", ((i, "x" * 30) for i in range(200)))
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
        cluster.master.bulk_load("kv", ((i, "x" * 30) for i in range(200)))
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
