"""The closed-loop autoscaler: signals, actions, and the drain guard."""

import pytest

from repro import Cluster, Environment
from repro.cluster import PolicyThresholds, ThresholdPolicy
from repro.cluster.forecasting import LoadForecaster, WorkloadHint
from repro.cluster.monitor import NodeSample
from repro.core import PhysiologicalPartitioning, Rebalancer
from repro.moves import RetryPolicy
from repro.traffic import (
    AdmissionController,
    Autoscaler,
    AutoscalerConfig,
    Request,
)
from repro.workload import load_tpcc
from repro.workload.tpcc_schema import WAREHOUSE_PARTITIONED, TpccConfig
from tests.moves.conftest import build_move_cluster

TPCC = TpccConfig(
    warehouses=4, districts_per_warehouse=2, customers_per_district=10,
    items=50, orders_per_district=5, order_lines_per_order=3,
)


def make_sample(node_id=0, cpu=0.0, time=0.0):
    return NodeSample(
        time=time, node_id=node_id, cpu_utilization=cpu,
        disk_utilization=0.0, iops=0.0, net_bytes=0,
        buffer_hit_ratio=1.0, partition_stats=[],
    )


def scale_events(cluster):
    """The autoscaler's actions, as the cluster timeline recorded them."""
    return [e for e in cluster.timeline if e.source == "autoscaler"]


def build(initially_active=1, queue_limit=10_000):
    env = Environment()
    cluster = Cluster(env, node_count=3,
                      initially_active=initially_active,
                      buffer_pages_per_node=256, boot_seconds=1.0)
    load_tpcc(cluster, TPCC, owners=[cluster.workers[0]])
    admission = AdmissionController(env, queue_limit=queue_limit)
    rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())
    autoscaler = Autoscaler(
        cluster, rebalancer, list(WAREHOUSE_PARTITIONED),
        admission=admission,
        config=AutoscalerConfig(interval=1.0, cooldown_intervals=2,
                                queue_pressure_per_node=100),
    )
    return env, cluster, admission, autoscaler


class TestSignals:
    def test_queue_pressure_on_backlog(self):
        env, cluster, admission, scaler = build()
        assert scaler._queue_pressure() is None
        admission.offer(Request("web", 0.0, count=150))
        reason = scaler._queue_pressure()
        assert reason is not None and "backlog" in reason

    def test_queue_pressure_on_shedding(self):
        env, cluster, admission, scaler = build(queue_limit=10)
        admission.offer(Request("web", 0.0, count=10))
        admission.offer(Request("web", 0.0, count=5))   # shed
        reason = scaler._queue_pressure()
        assert reason is not None and "shed" in reason
        # The delta resets: no new shedding, no new pressure (the
        # backlog alone is under the bound).
        assert scaler._queue_pressure() is None

    def test_drain_guard(self):
        env, cluster, admission, scaler = build()
        assert scaler._drained()
        admission.offer(Request("web", 0.0, count=1))
        assert not scaler._drained()

    def test_forecast_cold_needs_every_node_cold(self):
        env, cluster, admission, scaler = build()
        f = scaler.forecaster
        for t in (0.0, 5.0):
            f.observe(make_sample(node_id=0, cpu=0.02, time=t))
            f.observe(make_sample(node_id=1, cpu=0.9, time=t))
        samples = [make_sample(node_id=0, cpu=0.02, time=5.0),
                   make_sample(node_id=1, cpu=0.9, time=5.0)]
        assert not scaler._forecast_cold(samples)
        assert scaler._forecast_cold(samples[:1])

    def test_hint_reaches_forecaster(self):
        env, cluster, admission, scaler = build()
        scaler.hint(WorkloadHint(start=10.0, end=20.0,
                                 expected_utilization=0.9))
        f = scaler.forecaster
        f.observe(make_sample(cpu=0.1, time=0.0))
        f.observe(make_sample(cpu=0.1, time=5.0))
        assert f.predict(0, now=12.0, horizon=0.0) == pytest.approx(0.9)


class TestActions:
    def test_scale_out_powers_on_standby_and_moves_data(self):
        env, cluster, admission, scaler = build(initially_active=1)
        assert cluster.active_node_count == 1
        env.run(until=env.process(scaler._scale_out(0, "test pressure")))
        assert cluster.active_node_count == 2
        assert len(scale_events(cluster)) == 1
        event = scale_events(cluster)[0]
        assert event.kind == "scale-out"
        assert event.detail == "test pressure; 2 active"
        newcomer = cluster.worker(event.node_id)
        assert newcomer.disk_space.segment_count() > 0

    def test_scale_out_without_standby_is_a_noop(self):
        env, cluster, admission, scaler = build(initially_active=3)
        env.run(until=env.process(scaler._scale_out(0, "x")))
        assert scale_events(cluster) == []

    def test_scale_in_consolidates_and_powers_off(self):
        env, cluster, admission, scaler = build(initially_active=1)
        env.run(until=env.process(scaler._scale_out(0, "grow")))
        victim = scale_events(cluster)[0].node_id
        env.run(until=env.process(scaler._scale_in([victim])))
        assert cluster.active_node_count == 1
        assert not cluster.worker(victim).is_active
        assert scale_events(cluster)[-1].kind == "scale-in"

    def test_scale_in_never_targets_master(self):
        env, cluster, admission, scaler = build(initially_active=2)
        env.run(until=env.process(
            scaler._scale_in([cluster.master.node_id])))
        assert all(e.kind != "scale-in" for e in scale_events(cluster))
        assert cluster.active_node_count == 2

    def test_scale_in_respects_min_active_floor(self):
        env, cluster, admission, scaler = build(initially_active=1)
        env.run(until=env.process(scaler._scale_in([0])))
        assert cluster.active_node_count == 1


class TestLoop:
    def test_loop_scales_out_under_sustained_queue_pressure(self):
        """Even with idle CPUs, a standing admission backlog must
        recruit a node — open-loop overload shows up in the queue
        before it shows up in utilisation."""
        env, cluster, admission, scaler = build(initially_active=1)
        admission.offer(Request("web", 0.0, count=5_000))
        env.process(scaler.run(until=30.0), name="autoscaler")
        env.run(until=30.0)
        scaler.stop()
        assert cluster.active_node_count >= 2
        assert any(e.kind == "scale-out" for e in scale_events(cluster))

    def test_loop_respects_cooldown(self):
        env, cluster, admission, scaler = build(initially_active=1)
        # Permanent pressure: both standbys get recruited, but the
        # second action must wait out the cooldown rounds.
        admission.offer(Request("web", 0.0, count=10_000))
        env.process(scaler.run(until=60.0), name="autoscaler")
        env.run(until=60.0)
        scaler.stop()
        outs = [e for e in scale_events(cluster) if e.kind == "scale-out"]
        assert len(outs) == 2     # only two standby nodes exist
        gap = outs[1].time - outs[0].time
        assert gap >= (scaler.config.cooldown_intervals
                       * scaler.config.interval)


class TestInheritedBranches:
    """What only the old rebalancer loop did before the two merged."""

    def test_resumes_a_suspended_range_move_before_new_work(self):
        env, cluster, _partition = build_move_cluster(rows=240)
        cluster.moves.retry = RetryPolicy(max_attempts=2, base_delay=0.1,
                                          multiplier=1.0, max_delay=0.1,
                                          jitter=0.0)
        rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())
        journal = cluster.moves.journal
        target_port = cluster.worker(2).port

        def sever_mid_move():
            # One ~2 s segment has switched; the next is on the wire.
            while not (journal.open_range_moves() and
                       journal.open_range_moves()[0].segments_switched):
                yield env.timeout(0.1)
            target_port.sever()

        env.process(sever_mid_move())
        env.run(until=env.process(
            rebalancer.scale_out(["kv"], [1], [2], fraction=1.0)))
        assert len(rebalancer.failed_moves) == 1
        (entry,) = journal.open_range_moves()     # suspended, not rolled back
        switched_before = entry.segments_switched
        target_port.restore()

        scaler = Autoscaler(cluster, rebalancer, ["kv"], admission=None,
                            config=AutoscalerConfig(interval=1.0))
        env.run(until=env.process(scaler.run(until=env.now + 3.0)))
        assert journal.open_range_moves() == []
        assert entry.segments_switched > switched_before
        assert scale_events(cluster) == []        # resumed; nothing new
        assert cluster.worker(1).disk_space.segment_count() == 0
