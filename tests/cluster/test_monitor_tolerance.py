"""ClusterMonitor must tolerate offline, crashed, partitioned, and
removed workers: a monitoring round never dies because a node did."""

import pytest

from repro import Cluster, Environment


@pytest.fixture()
def rig():
    env = Environment()
    cluster = Cluster(env, node_count=4, initially_active=4,
                      buffer_pages_per_node=64)
    return env, cluster


def test_collect_skips_crashed_worker(rig):
    env, cluster = rig
    cluster.worker(2).machine.crash()
    samples = cluster.monitor.collect()
    assert {s.node_id for s in samples} == {0, 1, 3}
    assert 2 not in cluster.monitor.heartbeats


def test_collect_skips_severed_worker(rig):
    env, cluster = rig
    cluster.worker(1).port.sever()
    samples = cluster.monitor.collect()
    assert 1 not in {s.node_id for s in samples}
    cluster.worker(1).port.restore()
    samples = cluster.monitor.collect()
    assert 1 in {s.node_id for s in samples}


def test_collect_skips_standby_worker():
    env = Environment()
    cluster = Cluster(env, node_count=4, initially_active=2,
                      buffer_pages_per_node=64)
    samples = cluster.monitor.collect()
    assert {s.node_id for s in samples} == {0, 1}
    # Standby nodes never heartbeat — the failure detector must not
    # declare them dead (it ignores nodes with no entry at all).
    assert set(cluster.monitor.heartbeats) == {0, 1}


def test_collect_tolerates_worker_removed_midflight(rig):
    env, cluster = rig
    # A worker yanked from the monitored list mid-round (scale-in).
    cluster.monitor.workers = [w for w in cluster.monitor.workers
                               if w.node_id != 3]
    samples = cluster.monitor.collect()
    assert {s.node_id for s in samples} == {0, 1, 2}


def test_heartbeats_go_stale_not_absent(rig):
    env, cluster = rig
    def script():
        for _ in range(3):
            yield env.timeout(1.0)
            cluster.monitor.collect()
        cluster.worker(2).machine.crash()
        for _ in range(3):
            yield env.timeout(1.0)
            cluster.monitor.collect()

    env.run(until=env.process(script()))
    # The dead node keeps its LAST heartbeat; it just stops advancing.
    assert cluster.monitor.heartbeats[2] == 3.0
    assert cluster.monitor.heartbeats[1] == 6.0


def test_sample_exception_is_a_defect_not_a_missed_heartbeat(rig):
    """``sample_node`` only reads counters: a raise in there must reach
    the caller, not pass for a missed heartbeat (and a false failover)."""
    env, cluster = rig

    class Boom(Exception):
        pass

    original = cluster.monitor.sample_node

    def flaky(worker):
        if worker.node_id == 1:
            raise Boom("disk died mid-report")
        return original(worker)

    cluster.monitor.sample_node = flaky
    with pytest.raises(Boom):
        cluster.monitor.collect()
