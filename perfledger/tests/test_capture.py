"""Capture shims: live objects are kept, and the originals come back
even when the run raises."""

import pytest

from perfledger.capture import Capture, shims


def wrapped_attributes():
    from repro.cluster.cluster import Cluster
    from repro.core import Rebalancer
    from repro.hardware.power import ClusterEnergyMeter
    from repro.reads import ReadTier
    from repro.sim.engine import Environment
    from repro.traffic import SessionEngine
    from repro.workload import WorkloadDriver

    classes = (Cluster, WorkloadDriver, SessionEngine, Rebalancer, ReadTier)
    return ([(cls, "__init__") for cls in classes]
            + [(Environment, "run"), (ClusterEnergyMeter, "sample")])


def test_shims_capture_instances_and_clock_the_first_run():
    from repro.cluster.cluster import Cluster
    from repro.sim.engine import Environment

    capture = Capture()
    with shims(capture):
        env = Environment()
        cluster = Cluster(env, node_count=2)
        assert capture.setup_ended_cpu is None
        env.run(until=env.timeout(1.0))
        first = capture.setup_ended_cpu
        env.run(until=env.timeout(1.0))
    assert capture.one("Cluster") is cluster
    assert first is not None and capture.setup_ended_cpu == first
    assert capture.run_began_cpu >= first and capture.setup_spin_cpu_s > 0
    assert capture.all("ReadTier") == []
    with pytest.raises(LookupError):
        capture.one("WorkloadDriver")


def test_every_meter_sample_runs_one_reference_spin():
    from repro.cluster.cluster import Cluster
    from repro.sim.engine import Environment

    capture = Capture()
    with shims(capture):
        cluster = Cluster(Environment(), node_count=1)
        for _ in range(3):
            cluster.meter.sample()
    assert capture.run_spins == 3
    assert 0 < capture.run_spin_cpu_s <= capture.run_spin_wall_s * 1.5


def test_originals_are_restored_when_the_run_raises():
    before = [getattr(cls, name) for cls, name in wrapped_attributes()]
    with pytest.raises(RuntimeError, match="boom"):
        with shims(Capture()):
            during = [getattr(cls, name) for cls, name in wrapped_attributes()]
            assert all(d is not b for d, b in zip(during, before))
            raise RuntimeError("boom")
    after = [getattr(cls, name) for cls, name in wrapped_attributes()]
    assert all(a is b for a, b in zip(after, before))
