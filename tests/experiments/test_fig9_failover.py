"""Fig. 9 failover experiment: acceptance semantics on a tiny run.

k=2 + crash: zero lost committed transactions, automatic promotion,
recovery time and throughput dip reported.  k=1: graceful degradation
(partitions unavailable, retries exhaust cleanly, no hang).  Same seed,
same crash schedule, same metrics.
"""

import pytest

from repro.experiments.fig9_failover import Fig9Config, run_fig9_single
from repro.workload import TpccConfig


def tiny_fig9_config(**overrides) -> Fig9Config:
    params = dict(
        tpcc=TpccConfig(
            warehouses=2, districts_per_warehouse=2,
            customers_per_district=10, items=50,
            orders_per_district=4, order_lines_per_order=3,
        ),
        clients=3, client_interval=0.4, node_count=4,
        crash_at=12.0, restart_after=16.0, duration=45.0, seed=0,
    )
    params.update(overrides)
    return Fig9Config(**params)


def test_k2_crash_zero_lost_and_automatic_promotion():
    result = run_fig9_single(2, tiny_fig9_config())
    run = result.counters["run"]
    assert run["committed_orders"] > 0
    assert run["lost_commits"] == 0
    assert run["promotions"] > 0
    assert run["unavailable_partitions"] == 0
    assert run["replicas_seeded"] > 0
    assert run["commits_shipped"] > 0
    # Detection and failover happened and are reported.
    assert run["detection_seconds"] is not None
    assert 0 < run["detection_seconds"] < 10
    assert run["failover_seconds"] is not None
    assert run["failover_seconds"] >= run["detection_seconds"]
    assert 0.0 <= run["dip_fraction"] <= 1.0
    assert run["baseline_qps"] > 0
    assert any(e.kind == "promoted" for e in result.timeline)


def test_k1_degrades_gracefully():
    result = run_fig9_single(1, tiny_fig9_config())
    run = result.counters["run"]
    # No replicas to promote: partitions go unavailable instead.
    assert run["promotions"] == 0
    assert run["unavailable_partitions"] > 0
    assert run["replicas_seeded"] == 0
    # The run terminates (no hang) and acknowledged commits survive
    # on the restarted node's disk-backed partitions.
    assert run["committed_orders"] > 0
    assert run["lost_commits"] == 0
    # Clients kept retrying and/or exhausted cleanly during the outage.
    retries = result.counters["retries"]
    assert retries["retried_completions"] + retries["exhausted_failures"] > 0


def test_same_seed_same_metrics():
    a = run_fig9_single(2, tiny_fig9_config())
    b = run_fig9_single(2, tiny_fig9_config())
    assert a.series == b.series
    assert a.counters == b.counters
    assert a.timeline == b.timeline


def test_different_seed_different_schedule():
    a = run_fig9_single(2, tiny_fig9_config(seed=0))
    b = run_fig9_single(2, tiny_fig9_config(seed=1))
    # Same crash plan, but the workload interleaving differs.
    assert (a.counters["run"]["committed_orders"]
            != b.counters["run"]["committed_orders"]
            or a.series["qps"] != b.series["qps"])
