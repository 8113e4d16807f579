"""Gray-failure detection: RTT/disk-service-time outlier scoring,
suspect → quarantine hysteresis, and the drain it drives."""

import pytest

from repro import Cluster, Environment
from repro.cluster.monitor import (
    GrayFailureDetector,
    NODE_STATUSES,
    NodeSample,
)
from repro.hardware import specs


@pytest.fixture()
def rig():
    env = Environment(seed=5)
    cluster = Cluster(env, node_count=5, initially_active=5,
                      buffer_pages_per_node=64)
    return env, cluster


def _sample(cluster, node_id, *, rtt=None, svc=1e-3, time=0.0):
    return NodeSample(
        time=time, node_id=node_id, cpu_utilization=0.1,
        disk_utilization=0.1, iops=10.0, net_bytes=0,
        buffer_hit_ratio=1.0, partition_stats=[],
        heartbeat_rtt=rtt if rtt is not None
        else 2.0 * specs.NET_RPC_LATENCY_SECONDS,
        disk_service_time=svc,
    )


def _feed(cluster, samples):
    cluster.monitor.history.extend(samples)


def test_samples_carry_rtt_service_time_and_status(rig):
    env, cluster = rig
    sample = cluster.monitor.sample_node(cluster.worker(1))
    assert sample.heartbeat_rtt == pytest.approx(
        2.0 * specs.NET_RPC_LATENCY_SECONDS
    )
    assert sample.disk_service_time == 0.0  # no I/O yet
    assert sample.status == "alive"
    cluster.monitor.set_status(1, "suspect")
    assert cluster.monitor.sample_node(cluster.worker(1)).status == "suspect"
    with pytest.raises(ValueError):
        cluster.monitor.set_status(1, "zombie")
    assert "suspect" in NODE_STATUSES and "dead" in NODE_STATUSES


def test_flaky_port_inflates_reported_rtt(rig):
    env, cluster = rig
    base = cluster.monitor.sample_node(cluster.worker(1)).heartbeat_rtt
    cluster.worker(1).port.make_flaky(0.5, 0.01)
    degraded = cluster.monitor.sample_node(cluster.worker(1)).heartbeat_rtt
    # 2x extra delay both ways plus the expected 1/(1-loss) resends.
    assert degraded > 2.0 * base
    cluster.worker(1).port.heal()
    assert cluster.monitor.sample_node(
        cluster.worker(1)).heartbeat_rtt == pytest.approx(base)


def test_outlier_scoring_flags_only_the_limping_node(rig):
    env, cluster = rig
    detector = GrayFailureDetector(cluster)
    _feed(cluster, [_sample(cluster, n) for n in (1, 2, 3)]
          + [_sample(cluster, 4, svc=12e-3)])
    scores = detector.scores()
    assert scores[4] == pytest.approx(12.0)
    assert all(scores[n] == pytest.approx(1.0) for n in (1, 2, 3))


def test_suspect_needs_consecutive_strikes(rig):
    env, cluster = rig
    detector = GrayFailureDetector(cluster, suspect_strikes=2)
    _feed(cluster, [_sample(cluster, n) for n in (1, 2, 3)]
          + [_sample(cluster, 4, svc=12e-3)])
    detector.poll_once()
    assert detector.state.get(4, "alive") == "alive"  # one strike only
    detector.poll_once()
    assert detector.state[4] == "suspect"
    assert cluster.monitor.status_of(4) == "suspect"
    assert detector.suspects == 1
    assert [(e.source, e.kind, e.node_id) for e in cluster.timeline] == [
        ("gray", "suspect", 4)]


def test_cluster_wide_slowdown_flags_nobody(rig):
    env, cluster = rig
    detector = GrayFailureDetector(cluster)
    _feed(cluster, [_sample(cluster, n, svc=50e-3) for n in (1, 2, 3, 4)])
    for _ in range(5):
        detector.poll_once()
    assert detector.suspects == 0  # everyone is slow relative to no one


def test_quarantine_drives_drain_and_clear_undrains(rig):
    env, cluster = rig

    class StubCoordinator:
        def __init__(self):
            self.drained = []
            self.undrained = []

        def drain_node(self, node_id):
            self.drained.append(node_id)
            return iter(())

        def undrain_node(self, node_id):
            self.undrained.append(node_id)

    coordinator = StubCoordinator()
    detector = GrayFailureDetector(
        cluster, coordinator, suspect_strikes=2, quarantine_strikes=2,
        clear_polls=2,
    )

    def limp():
        _feed(cluster, [_sample(cluster, n) for n in (1, 2, 3)]
              + [_sample(cluster, 4, svc=12e-3)])

    def healthy():
        _feed(cluster, [_sample(cluster, n) for n in (1, 2, 3, 4)])

    to_drain = []
    for _ in range(4):
        limp()
        to_drain += detector.poll_once()
    assert detector.state[4] == "quarantined"
    assert to_drain == [4]
    assert detector.quarantines == 1
    # Recovery: consecutive clean polls clear the node and undrain it.
    healthy()
    detector.poll_once()
    assert detector.state[4] == "quarantined"  # hysteresis: not yet
    healthy()
    detector.poll_once()
    assert detector.state[4] == "alive"
    assert cluster.monitor.status_of(4) == "alive"
    assert coordinator.undrained == [4]
    assert detector.clears == 1


def test_oscillating_node_does_not_flap(rig):
    """A node bouncing between outlier and healthy must not rack up
    suspect/clear transitions — both edges carry hysteresis."""
    env, cluster = rig
    detector = GrayFailureDetector(cluster, suspect_strikes=3,
                                   clear_polls=3)
    for i in range(12):
        svc = 12e-3 if i % 2 == 0 else 1e-3
        _feed(cluster, [_sample(cluster, n) for n in (1, 2, 3)]
              + [_sample(cluster, 4, svc=svc)])
        detector.poll_once()
    assert detector.suspects == 0
    assert detector.clears == 0


def test_too_few_samples_scores_nothing(rig):
    env, cluster = rig
    detector = GrayFailureDetector(cluster)
    _feed(cluster, [_sample(cluster, 1), _sample(cluster, 2)])
    assert detector.scores() == {}


def test_bad_thresholds_rejected(rig):
    env, cluster = rig
    with pytest.raises(ValueError):
        GrayFailureDetector(cluster, score_threshold=2.0,
                            clear_threshold=3.0)
    with pytest.raises(ValueError):
        GrayFailureDetector(cluster, suspect_strikes=0)
