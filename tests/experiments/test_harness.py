"""Unit tests for the blocks the experiments share
(``repro.experiments.harness``)."""

from repro import Cluster, Environment
from repro.experiments import harness
from repro.workload import TpccConfig

TPCC = TpccConfig(warehouses=2, districts_per_warehouse=2,
                  customers_per_district=5, items=20,
                  orders_per_district=3, order_lines_per_order=2)


def test_lost_new_orders_flags_a_deleted_row_and_passes_an_intact_one():
    env, cluster = harness.tpcc_cluster(
        0, TPCC, owners=(0, 1), load_segment_max_pages=8,
        node_count=2, initially_active=2)
    intact, doomed = (1, 1, 1), (2, 2, 3)
    assert harness.lost_new_orders(cluster, [intact, doomed]) == 0

    def delete():
        txn = cluster.txns.begin()
        yield from cluster.master.delete("orders", doomed, txn)
        yield from cluster.txns.commit(txn)

    env.run(until=env.process(delete()))
    assert harness.lost_new_orders(cluster, [intact]) == 0
    assert harness.lost_new_orders(cluster, [intact, doomed]) == 1
    # An order id that was never written is lost, not a crash.
    assert harness.lost_new_orders(cluster, [(1, 1, 999)]) == 1


def test_remember_new_orders_listens_for_acknowledged_new_orders_only():
    class Driver:
        completion_listener = None

    driver = Driver()
    committed = harness.remember_new_orders(driver)
    driver.completion_listener("new_order", 0, 1, None,
                               {"w": 1, "d": 2, "o_id": 3}, 1)
    driver.completion_listener("payment", 0, 1, None, {"w": 1}, 1)
    driver.completion_listener("new_order", 0, 1, None, None, 1)
    assert committed == [(1, 2, 3)]


def test_admission_violations_names_each_leak():
    clean = dict(offered=100, admitted=90, rejected=6, shed=4,
                 completed=85, abandoned=5)
    assert harness.admission_violations(clean, 100, "day") == []

    (short,) = harness.admission_violations(clean, 101, "day")
    assert short.startswith("day offered only 100") and "101" in short

    (leak,) = harness.admission_violations({**clean, "shed": 3}, 100, "run")
    assert leak.startswith("admission leak") and "100 != 90 + 6 + 3" in leak

    (drain,) = harness.admission_violations(
        {**clean, "abandoned": 4}, 100, "run")
    assert drain.startswith("drain leak") and "90 != 85 + 4" in drain


def kv_cluster():
    env = Environment()
    cluster = Cluster(env, node_count=2, initially_active=2)
    harness.kv_cluster_rows(cluster, 1, rows=10)
    return env, cluster


def test_kv_write_with_retries_gives_up_after_the_conflicts():
    env, cluster = kv_cluster()
    txns = cluster.txns
    outcome = {}

    def scenario():
        blocker = txns.begin()        # holds an uncommitted write on key 5
        yield from cluster.master.update("kv", 5, (5, "held"), blocker)
        began = env.now
        outcome["acked"] = yield from harness.kv_write_with_retries(
            cluster, "update", 5, "late", retries=3)
        outcome["backoff"] = env.now - began
        outcome["active"] = txns.active_count
        yield from txns.commit(blocker)
        outcome["retry"] = yield from harness.kv_write_with_retries(
            cluster, "update", 5, "late", retries=3)

    env.run(until=env.process(scenario()))
    assert outcome["acked"] is False
    assert outcome["backoff"] >= 0.05 + 0.1 + 0.2
    assert outcome["active"] == 1     # only the blocker: no leaked txn
    assert outcome["retry"] is True
    assert harness.kv_readback(env, cluster, {5: "late", 6: "seed-00006"}) \
        == []
    (lost,) = harness.kv_readback(env, cluster, {7: "never written"})
    assert "key 7" in lost


def test_render_anomaly_lines_counts_evidence_only_when_audited():
    class Run:
        def __init__(self, anomalies, audited, ops=0, dropped=0):
            self.anomalies, self.audited = anomalies, audited
            self.history_stats = {"ops_recorded": ops, "ops_dropped": dropped}

    assert harness.render_anomaly_lines([("k=1", Run([], False))]) == []
    lines = harness.render_anomaly_lines([
        ("seed 0", Run(["g1c: cycle"], True, ops=10, dropped=1)),
        ("seed 1", Run([], True, ops=5)),
    ])
    assert lines == [
        "seed 0: ISOLATION ANOMALY: g1c: cycle",
        "audit: 1 isolation anomalies over 15 recorded operations "
        "(1 dropped)",
    ]
