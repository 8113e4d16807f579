"""Integration: the forecaster makes the control loop scale out
proactively."""

import pytest

from repro import Cluster, Column, Environment, Schema
from repro.cluster import PolicyThresholds, ThresholdPolicy
from repro.cluster.forecasting import LoadForecaster
from repro.core import PhysiologicalPartitioning, Rebalancer
from repro.traffic import Autoscaler, AutoscalerConfig


class NoForecast(LoadForecaster):
    """The plain-thresholds side: never predicts, so nothing is boosted."""

    def predict(self, node_id, now=None, horizon=None):
        return None


def build():
    env = Environment()
    cluster = Cluster(env, node_count=3, initially_active=1,
                      buffer_pages_per_node=256, segment_max_pages=8,
                      page_bytes=2048)
    schema = Schema([Column("id"), Column("v", "str", width=32)], key=("id",))
    cluster.master.create_table("kv", schema, owner=cluster.workers[0])

    def load():
        txn = cluster.txns.begin()
        for i in range(100):
            yield from cluster.master.insert("kv", (i, "x" * 20), txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(load()))
    return env, cluster


def ramping_hog(env, cluster, stop_flag):
    """CPU load that grows ~6% of one core per 5 seconds."""

    def hog():
        intensity = 0.05
        while not stop_flag[0]:
            busy = min(intensity, 0.95) * 5.0 * cluster.workers[0].cpu.cores
            yield from cluster.workers[0].cpu.execute(busy / 2)
            # Two cores: issue the second half concurrently-ish.
            yield from cluster.workers[0].cpu.execute(busy / 2)
            intensity += 0.06
            remainder = 5.0 - busy  # crude pacing
            if remainder > 0:
                yield env.timeout(remainder)

    return env.process(hog())


def run_with_forecaster(forecaster, thresholds, duration=120.0):
    env, cluster = build()
    rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())
    loop = Autoscaler(
        cluster, rebalancer, ["kv"], admission=None, forecaster=forecaster,
        policy=ThresholdPolicy(thresholds),
        config=AutoscalerConfig(interval=5.0, cooldown_intervals=100),
    )
    stop = [False]
    ramping_hog(env, cluster, stop)
    first_scale_out = []
    env.process(loop.run())

    def watcher():
        while env.now < duration:
            yield env.timeout(1.0)
            if rebalancer.scale_out_count and not first_scale_out:
                first_scale_out.append(env.now)
                break
        stop[0] = True
        loop.stop()

    env.run(until=env.process(watcher()))
    return first_scale_out[0] if first_scale_out else None


def test_forecasting_scales_out_before_plain_policy():
    thresholds = PolicyThresholds(cpu_upper=0.8, cpu_lower=0.02,
                                  consecutive_samples=2)
    plain_time = run_with_forecaster(NoForecast(), thresholds)
    proactive_time = run_with_forecaster(
        LoadForecaster(alpha=0.7, beta=0.6, horizon=40.0), thresholds)
    assert proactive_time is not None
    # The forecaster fires earlier on the same ramp (or the plain
    # policy never fires within the window at all).
    if plain_time is not None:
        assert proactive_time < plain_time
