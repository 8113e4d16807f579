"""Rebalancer tests: scale-out, scale-in, helpers, and the control
loop (``Autoscaler``) driving them."""

import pytest

from repro.core import PhysiologicalPartitioning, Rebalancer
from repro.cluster import PolicyThresholds, ThresholdPolicy
from repro.traffic import Autoscaler, AutoscalerConfig
from tests.core.conftest import read_all


def make_rebalancer(cluster):
    return Rebalancer(cluster, PhysiologicalPartitioning())


def make_loop(cluster, rebalancer, consecutive_samples):
    return Autoscaler(
        cluster, rebalancer, ["kv"], admission=None,
        policy=ThresholdPolicy(
            PolicyThresholds(consecutive_samples=consecutive_samples)),
        config=AutoscalerConfig(interval=2.0),
    )


def test_scale_out_powers_on_targets_and_migrates(migration_cluster):
    env, cluster = migration_cluster
    rebalancer = make_rebalancer(cluster)

    def go():
        yield from rebalancer.scale_out(
            ["kv"], source_ids=[0], target_ids=[2, 3], fraction=0.5
        )

    env.run(until=env.process(go()))
    assert cluster.worker(2).is_active
    assert cluster.worker(3).is_active
    assert rebalancer.scale_out_count == 1
    assert sum(r.records_moved for r in rebalancer.reports) >= 150
    assert read_all(env, cluster) == []


def test_scale_in_returns_data_and_powers_off(migration_cluster):
    env, cluster = migration_cluster
    rebalancer = make_rebalancer(cluster)

    def go():
        # First spread to node 2, then pull back and shut node 2 down.
        yield from rebalancer.scale_out(
            ["kv"], source_ids=[0], target_ids=[2], fraction=0.5
        )
        yield from rebalancer.scale_in("kv", victim_id=2, receiver_id=0)

    env.run(until=env.process(go()))
    assert not cluster.worker(2).is_active
    assert read_all(env, cluster) == []
    assert rebalancer.scale_in_count == 1


def test_helpers_engage_and_disengage(migration_cluster):
    env, cluster = migration_cluster
    rebalancer = make_rebalancer(cluster)
    source = cluster.workers[0]
    observed = {}

    def go():
        helper = cluster.worker(3)
        yield from rebalancer.helper_protocol.engage(
            [source], [3], remote_buffer_pages=64
        )
        observed["shipping"] = source.wal.is_shipping
        observed["remote_buffer"] = source.buffer.remote_extension is not None
        observed["helper_active"] = helper.is_active
        yield from rebalancer.helper_protocol.disengage()

    env.run(until=env.process(go()))
    assert observed == {
        "shipping": True, "remote_buffer": True, "helper_active": True,
    }
    assert not source.wal.is_shipping
    assert source.buffer.remote_extension is None
    assert not cluster.worker(3).is_active  # powered back down


def test_scale_out_with_helpers_cleans_up(migration_cluster):
    env, cluster = migration_cluster
    rebalancer = make_rebalancer(cluster)

    def go():
        yield from rebalancer.scale_out(
            ["kv"], source_ids=[0], target_ids=[2], fraction=0.5, helpers=[3]
        )

    env.run(until=env.process(go()))
    assert not cluster.workers[0].wal.is_shipping
    assert not cluster.worker(3).is_active
    assert read_all(env, cluster) == []


def test_helper_use_increases_power_draw(migration_cluster):
    """Fig. 8c's mechanism: helpers add watts while engaged."""
    env, cluster = migration_cluster
    rebalancer = make_rebalancer(cluster)
    watts = {}

    def go():
        watts["before"] = cluster.current_watts()
        yield from rebalancer.helper_protocol.engage(
            [cluster.workers[0]], [3]
        )
        watts["during"] = cluster.current_watts()
        yield from rebalancer.helper_protocol.disengage()
        yield env.timeout(5)
        watts["after"] = cluster.current_watts()

    env.run(until=env.process(go()))
    assert watts["during"] > watts["before"] + 10
    assert watts["after"] < watts["during"]


def test_control_loop_scales_out_under_load(migration_cluster):
    env, cluster = migration_cluster
    rebalancer = make_rebalancer(cluster)
    loop = make_loop(cluster, rebalancer, consecutive_samples=1)

    peak_active = []

    def hog():
        # Saturate node 0's CPU so the policy sees > 80 % utilisation.
        while cluster.active_node_count < 3:
            yield from cluster.workers[0].cpu.execute(0.5)
        peak_active.append(cluster.active_node_count)

    def driver():
        for _ in range(2):
            env.process(hog())
        env.process(loop.run())
        yield env.timeout(120)
        loop.stop()

    env.run(until=env.process(driver()))
    # A standby node was recruited while the load lasted (the loop may
    # legitimately scale back in after the hog stops).
    assert peak_active and max(peak_active) >= 3
    assert rebalancer.scale_out_count >= 1
    assert read_all(env, cluster) == []


def test_control_loop_scales_in_when_idle(migration_cluster):
    env, cluster = migration_cluster
    rebalancer = make_rebalancer(cluster)
    loop = make_loop(cluster, rebalancer, consecutive_samples=2)

    def driver():
        # Spread data onto node 1 first so there is something to pull in.
        yield from rebalancer.scale_out(
            ["kv"], source_ids=[0], target_ids=[1], fraction=0.5
        )
        env.process(loop.run())
        yield env.timeout(120)
        loop.stop()

    env.run(until=env.process(driver()))
    # Idle cluster: node 1 was quiesced and shut down.
    assert cluster.active_node_count == 1
    assert read_all(env, cluster) == []
