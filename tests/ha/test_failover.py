"""Failover: detection, promotion, unavailability, restoration."""

import pytest

from repro.cluster.master import PartitionUnavailableError
from repro.ha.failover import FailoverCoordinator, FailureDetector
from repro.ha.faults import FaultInjector
from repro.ha.placement import PlacementPolicy
from repro.ha.replication import ReplicationManager
from tests.ha.conftest import insert_rows, run


def protect(env, cluster, k=2):
    manager = ReplicationManager(
        cluster, k=k, policy=PlacementPolicy(cluster, rack_width=2)
    )
    run(env, manager.protect_all())
    return manager


def failover_times(cluster, kind):
    """``(time, node_id)`` of the coordinator's ``kind`` timeline events."""
    return [(e.time, e.node_id) for e in cluster.timeline
            if e.source == "failover" and e.kind == kind]


def read_all(env, cluster, keys):
    rows = {}

    def work():
        txn = cluster.txns.begin()
        for key in keys:
            rows[key] = yield from cluster.master.read("kv", key, txn)
        yield from cluster.txns.commit(txn)

    run(env, work())
    return rows


def test_promote_repoints_and_preserves_commits(rig):
    env, cluster = rig
    insert_rows(env, cluster, 30)
    manager = protect(env, cluster, k=2)
    insert_rows(env, cluster, 10, start=100)  # shipped after the base image

    coordinator = FailoverCoordinator(cluster, replication=manager)
    FaultInjector(cluster).apply(
        FaultInjector(cluster).crash_at(0.0, 1).schedule[0]
    )
    run(env, coordinator.node_failed(1))

    assert coordinator.promotions, "every partition should have promoted"
    assert all(p["from_node"] == 1 and p["to_node"] != 1
               for p in coordinator.promotions)
    assert not coordinator.unavailable
    # The gpt now routes every kv partition away from the dead node.
    for _table, _kr, loc in cluster.master.gpt.locations_on(1):
        assert loc.node_id != 1
    # Committed rows (base image and shipped tail) survive the crash.
    rows = read_all(env, cluster, list(range(30)) + list(range(100, 110)))
    assert all(v is not None for v in rows.values())
    # New commits land on the promoted copies.
    insert_rows(env, cluster, 5, start=200)
    rows = read_all(env, cluster, range(200, 205))
    assert all(v is not None for v in rows.values())


def test_promotion_restores_replication_factor(rig):
    env, cluster = rig
    insert_rows(env, cluster, 10)
    manager = protect(env, cluster, k=2)
    coordinator = FailoverCoordinator(cluster, replication=manager)
    cluster.worker(1).machine.crash()
    run(env, coordinator.node_failed(1))
    for rs in cluster.catalog.replica_sets.values():
        assert rs.primary_node_id != 1
        live = rs.live_replicas(cluster)
        assert len(live) == 1, "factor k=2 means one live replica again"
        assert all(r.holder_node_id != rs.primary_node_id for r in live)


def test_k1_partition_goes_unavailable_then_restores(rig):
    env, cluster = rig
    insert_rows(env, cluster, 10)
    manager = protect(env, cluster, k=1)  # replica sets exist but are empty
    coordinator = FailoverCoordinator(cluster, replication=manager)
    cluster.worker(1).machine.crash()
    run(env, coordinator.node_failed(1))

    assert coordinator.unavailable
    assert not coordinator.promotions

    def reader():
        txn = cluster.txns.begin()
        with pytest.raises(PartitionUnavailableError):
            yield from cluster.master.read("kv", 1, txn)
        cluster.txns.abort(txn)

    run(env, reader())

    def restart():
        yield from cluster.worker(1).machine.power_on()

    run(env, restart())
    run(env, coordinator.node_restored(1))
    assert not coordinator.unavailable
    rows = read_all(env, cluster, range(10))
    assert all(v is not None for v in rows.values())


def test_detector_drives_failover_from_heartbeats(rig):
    env, cluster = rig
    insert_rows(env, cluster, 10)
    manager = protect(env, cluster, k=2)
    coordinator = FailoverCoordinator(cluster, replication=manager)
    cluster.monitor.interval = 1.0
    detector = FailureDetector(cluster, coordinator, miss_threshold=3)

    def script():
        env.process(cluster.monitor.run())
        env.process(detector.run())
        env.process(FaultInjector(cluster).crash_at(5.0, 1).run())
        yield env.timeout(20.0)

    run(env, script())
    detections = failover_times(cluster, "node_failed")
    assert detections and detections[0][1] == 1
    detected_at = detections[0][0]
    assert 5.0 < detected_at <= 5.0 + 3 * 1.0 + 2 * 1.0
    assert coordinator.promotions
    assert coordinator.recoveries[0]["node_id"] == 1


def test_timeline_orders_crash_failover_restart_restore(rig):
    """Faults and the failover they trigger land on one time-ordered
    log: crash, detection, restart, restoration — in that order."""
    env, cluster = rig
    insert_rows(env, cluster, 10)
    coordinator = FailoverCoordinator(cluster,
                                      replication=protect(env, cluster))
    cluster.monitor.interval = 1.0
    detector = FailureDetector(cluster, coordinator, miss_threshold=3)
    injector = FaultInjector(cluster).crash_at(env.now + 5.0, 1)
    injector.restart_at(env.now + 15.0, 1)

    def script():
        env.process(cluster.monitor.run())
        env.process(detector.run())
        env.process(injector.run())
        yield env.timeout(60.0)

    run(env, script())
    times = [e.time for e in cluster.timeline]
    assert times == sorted(times)
    steps = [(e.source, e.kind) for e in cluster.timeline
             if e.node_id == 1 and e.kind in (
                 "crash", "node_failed", "restart", "node_restored")]
    assert steps == [("fault", "crash"), ("failover", "node_failed"),
                     ("fault", "restart"), ("failover", "node_restored")]


def test_node_failed_is_idempotent(rig):
    env, cluster = rig
    insert_rows(env, cluster, 5)
    manager = protect(env, cluster, k=2)
    coordinator = FailoverCoordinator(cluster, replication=manager)
    cluster.worker(1).machine.crash()
    run(env, coordinator.node_failed(1))
    first = len(coordinator.promotions)
    run(env, coordinator.node_failed(1))
    assert len(coordinator.promotions) == first
    assert len(coordinator.recoveries) == 1


def test_rapid_sever_restore_does_not_oscillate_detector(rig):
    """Heartbeat flapping: a node bouncing between reachable and
    severed must produce one detection and (after it finally holds
    still) one restoration — not a detect/restore cycle per bounce."""
    env, cluster = rig
    insert_rows(env, cluster, 10)
    manager = protect(env, cluster, k=2)
    coordinator = FailoverCoordinator(cluster, replication=manager)
    cluster.monitor.interval = 1.0
    detector = FailureDetector(cluster, coordinator, miss_threshold=2,
                               restore_threshold=3)
    port = cluster.worker(1).port

    stable_at = {}

    def flapper():
        port.sever()
        yield env.timeout(5.0)        # long enough to be detected dead
        for _ in range(5):            # rapid flapping ...
            port.restore()
            yield env.timeout(1.2)    # ... up for barely one heartbeat
            port.sever()
            yield env.timeout(3.4)    # ... then stale again
        port.restore()                # stable recovery at last
        stable_at["t"] = env.now
        yield env.timeout(8.0)

    def script():
        env.process(cluster.monitor.run())
        env.process(detector.run())
        yield env.process(flapper())

    run(env, script())
    restorations = failover_times(cluster, "node_restored")
    assert len(failover_times(cluster, "node_failed")) == 1
    assert len(restorations) == 1
    # The restoration came from the stable window at the end, not from
    # any mid-flap lucky heartbeat.
    assert restorations[0][0] > stable_at["t"]


def test_restore_threshold_validated(rig):
    env, cluster = rig
    manager = protect(env, cluster, k=2)
    coordinator = FailoverCoordinator(cluster, replication=manager)
    with pytest.raises(ValueError):
        FailureDetector(cluster, coordinator, restore_threshold=0)


def test_promotion_falls_back_past_corrupt_replica(rig):
    """A replica whose log fails its checksum mid-replay must be
    skipped (marked stale) in favour of the next healthy replica."""
    import dataclasses as dc

    env, cluster = rig
    insert_rows(env, cluster, 10)
    manager = protect(env, cluster, k=3)
    coordinator = FailoverCoordinator(cluster, replication=manager)
    partition = next(iter(cluster.workers[1].partitions.values()))
    replica_set = cluster.catalog.replica_set_for(partition.partition_id)
    assert len(replica_set.replicas) == 2
    # Rot the replica that promotion would pick first (lowest holder).
    victim = min(replica_set.replicas, key=lambda r: r.holder_node_id)
    index = next(i for i, r in enumerate(victim.log.records)
                 if r.kind == "insert")
    record = victim.log.records[index]
    victim.log.records[index] = dc.replace(record,
                                           payload=("§rot", record.payload))

    cluster.worker(1).machine.crash()
    run(env, coordinator.node_failed(1))

    assert victim.stale
    assert coordinator.integrity_fallbacks == 1
    assert coordinator.promotions  # the healthy replica still promoted
    rows = read_all(env, cluster, [0, 5, 9])
    assert rows[5] == (5, "v005")


def test_drain_node_demotes_primaries_without_losing_commits(rig):
    env, cluster = rig
    insert_rows(env, cluster, 12)
    manager = protect(env, cluster, k=2)
    coordinator = FailoverCoordinator(cluster, replication=manager)
    assert cluster.workers[1].partitions

    run(env, coordinator.drain_node(1))

    assert coordinator.drains and coordinator.drains[0]["node_id"] == 1
    assert coordinator.drains[0]["demoted"] >= 1
    assert 1 in manager.avoid_nodes
    # Every partition moved off the drained node; data intact.
    locations = cluster.master.gpt.locations_on(1)
    assert all(loc.node_id != 1 for _t, _r, loc in locations) or not locations
    rows = read_all(env, cluster, list(range(12)))
    assert rows[7] == (7, "v007")

    coordinator.undrain_node(1)
    assert 1 not in manager.avoid_nodes
