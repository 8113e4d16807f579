"""Tests for the cluster monitor and the threshold policies."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.cluster import PolicyThresholds, ScaleDecision, ThresholdPolicy
from repro.cluster.monitor import NodeSample


def make_sample(node_id=0, cpu=0.0, disk=0.0, time=0.0):
    return NodeSample(
        time=time, node_id=node_id, cpu_utilization=cpu,
        disk_utilization=disk, iops=0.0, net_bytes=0,
        buffer_hit_ratio=1.0, partition_stats=[],
    )


class TestThresholdPolicy:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PolicyThresholds(cpu_upper=0.2, cpu_lower=0.5)
        with pytest.raises(ValueError):
            PolicyThresholds(consecutive_samples=0)
        with pytest.raises(ValueError):
            PolicyThresholds(disk_upper=1.5)

    def test_overload_needs_consecutive_samples(self):
        policy = ThresholdPolicy(PolicyThresholds(consecutive_samples=2))
        first = policy.observe([make_sample(cpu=0.95)])
        assert not first.wants_scale_out
        second = policy.observe([make_sample(cpu=0.95)])
        assert second.wants_scale_out
        assert second.overloaded_nodes == [0]

    def test_streak_resets_on_normal_sample(self):
        policy = ThresholdPolicy(PolicyThresholds(consecutive_samples=2))
        policy.observe([make_sample(cpu=0.95)])
        policy.observe([make_sample(cpu=0.5)])
        decision = policy.observe([make_sample(cpu=0.95)])
        assert not decision.wants_scale_out

    def test_underload_detection(self):
        policy = ThresholdPolicy(PolicyThresholds(consecutive_samples=1))
        decision = policy.observe([make_sample(cpu=0.05, disk=0.01)])
        assert decision.wants_scale_in
        assert decision.underloaded_nodes == [0]

    def test_overload_suppresses_scale_in(self):
        policy = ThresholdPolicy(PolicyThresholds(consecutive_samples=1))
        decision = policy.observe([
            make_sample(node_id=0, cpu=0.95),
            make_sample(node_id=1, cpu=0.05),
        ])
        assert decision.wants_scale_out
        assert not decision.wants_scale_in

    def test_disk_overload_triggers(self):
        policy = ThresholdPolicy(PolicyThresholds(consecutive_samples=1))
        decision = policy.observe([make_sample(disk=0.95)])
        assert decision.wants_scale_out

    def test_alternating_load_never_flaps(self):
        """The debounce contract: a load oscillating between over- and
        under-threshold every sample (the classic flapping input) must
        produce *zero* decisions with consecutive_samples=2 — neither
        streak ever reaches two."""
        policy = ThresholdPolicy(PolicyThresholds(consecutive_samples=2))
        decisions = []
        for i in range(100):
            if i % 2 == 0:
                s = make_sample(cpu=0.95, disk=0.95, time=float(i))
            else:
                s = make_sample(cpu=0.02, disk=0.02, time=float(i))
            decisions.append(policy.observe([s]))
        assert not any(d.wants_scale_out for d in decisions)
        assert not any(d.wants_scale_in for d in decisions)
        assert not any(d.wants_space_relief for d in decisions)

    def test_reset_clears_streaks(self):
        policy = ThresholdPolicy(PolicyThresholds(consecutive_samples=2))
        policy.observe([make_sample(cpu=0.95)])
        policy.reset(0)
        decision = policy.observe([make_sample(cpu=0.95)])
        assert not decision.wants_scale_out


class TestClusterMonitor:
    def make_cluster(self):
        env = Environment()
        cluster = Cluster(env, node_count=2, initially_active=2,
                          buffer_pages_per_node=256, segment_max_pages=16)
        return env, cluster

    def test_collect_skips_standby_nodes(self):
        env = Environment()
        cluster = Cluster(env, node_count=3, initially_active=1,
                          buffer_pages_per_node=256)
        samples = cluster.monitor.collect()
        assert [s.node_id for s in samples] == [0]

    def test_cpu_utilization_window(self):
        env, cluster = self.make_cluster()
        worker = cluster.workers[0]

        def burn():
            yield from worker.cpu.execute(10.0)

        env.process(burn())
        env.run(until=10.0)
        sample = cluster.monitor.sample_node(worker)
        # One of two cores busy the whole window.
        assert sample.cpu_utilization == pytest.approx(0.5, abs=0.05)

    def test_windows_are_deltas_not_cumulative(self):
        env, cluster = self.make_cluster()
        worker = cluster.workers[0]

        def burn():
            yield from worker.cpu.execute(10.0)

        env.process(burn())
        env.run(until=10.0)
        cluster.monitor.sample_node(worker)
        env.run(until=20.0)  # idle second window
        sample = cluster.monitor.sample_node(worker)
        assert sample.cpu_utilization == pytest.approx(0.0, abs=0.01)

    def test_partition_stats_deltas(self):
        env, cluster = self.make_cluster()
        worker = cluster.workers[0]
        worker.note_partition_pages(7, 10)
        s1 = cluster.monitor.sample_node(worker)
        assert s1.partition_stats[0].page_requests == 10
        worker.note_partition_pages(7, 5)
        env.run(until=1.0)
        s2 = cluster.monitor.sample_node(worker)
        assert s2.partition_stats[0].page_requests == 5

    def test_monitor_process_collects_on_interval(self):
        env, cluster = self.make_cluster()
        cluster.monitor.interval = 2.0
        env.process(cluster.monitor.run())
        env.run(until=7.0)
        assert len(cluster.monitor.history) == 3 * 2  # 3 rounds x 2 nodes

    def test_history_limit(self):
        env, cluster = self.make_cluster()
        cluster.monitor.history_limit = 5
        for _ in range(10):
            env.run(until=env.now + 1.0)
            cluster.monitor.collect()
        assert len(cluster.monitor.history) == 5
