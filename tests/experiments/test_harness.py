"""Unit tests for the blocks the experiments share
(``repro.experiments.harness``)."""

from repro import Cluster, Environment
from repro.audit import HistoryRecorder
from repro.experiments import harness
from repro.workload import TpccConfig
from repro.workload.client import (
    MAX_RETRIES,
    RETRY_BUDGET_SECONDS,
    backoff_delay,
    run_request,
)

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
    assert harness.admission_violations(clean, 101, "day") == [
        "day: offered >= min_requests does not hold (100 >= 101)"]
    assert harness.admission_violations({**clean, "shed": 3}, 100, "run") == [
        "run: offered == admitted + rejected + shed does not hold "
        "(100 == 99)"]
    assert harness.admission_violations(
        {**clean, "abandoned": 4}, 100, "run") == [
        "run: admitted == completed + abandoned does not hold (90 == 89)"]


def kv_cluster():
    env = Environment()
    cluster = Cluster(env, node_count=2, initially_active=2)
    harness.kv_cluster_rows(cluster, 1, rows=10)
    return env, cluster


def test_run_request_with_a_kv_body_gives_up_after_the_conflicts():
    """A ``kv`` write is a request of the one request loop: held by an
    uncommitted writer it exhausts the client's retries and leaks no
    transaction; once the blocker commits it acks, and its ack carries
    a closed cost breakdown."""
    env, cluster = kv_cluster()
    history = HistoryRecorder().attach(cluster)
    txns = cluster.txns
    retries: dict[str, int] = {}
    outcome = {}

    def body(txn):
        yield from cluster.master.update("kv", 5, (5, "late"), txn)

    def write():
        return run_request(cluster, "kv_update", body, txns.begin, env.now,
                           RETRY_BUDGET_SECONDS, retries)

    def scenario():
        blocker = txns.begin()        # holds an uncommitted write on key 5
        yield from cluster.master.update("kv", 5, (5, "held"), blocker)
        began = env.now
        outcome["held"] = yield from write()
        outcome["backoff"] = env.now - began
        outcome["active"] = txns.active_count
        yield from txns.commit(blocker)
        outcome["retry"] = yield from write()

    env.run(until=env.process(scenario()))
    assert outcome["held"] == (None, None, MAX_RETRIES)
    assert sum(retries.values()) == MAX_RETRIES
    assert outcome["backoff"] >= sum(map(backoff_delay, range(MAX_RETRIES)))
    assert outcome["active"] == 1     # only the blocker: no leaked txn
    txn, _result, attempts = outcome["retry"]
    assert txn is not None and attempts == 1
    (ack,) = [op for op in history.ops if op.kind == "ack"]
    assert (ack.txn_id, ack.table) == (txn.txn_id, "kv_update")
    assert ack.costs.other >= 0.0
    assert harness.kv_readback(env, cluster, {5: "late", 6: "seed-00006"}) \
        == []
    (lost,) = harness.kv_readback(env, cluster, {7: "never written"})
    assert "key 7" in lost


def test_render_anomaly_lines_counts_evidence_only_when_audited():
    """A run's audit evidence is its ``audit`` counters: printed for an
    audited run, so a truncated recording is never mistaken for a proof,
    and absent from an unaudited one."""
    env, cluster = kv_cluster()
    unaudited = {"run": {"acked": 0}}
    assert harness.audit_violations(None, cluster, "end", unaudited) == []
    assert "audit" not in harness.Result("plain", unaudited, [], []).to_table()

    recorder = HistoryRecorder().attach(cluster)
    assert harness.kv_readback(env, cluster, {3: "seed-00003"}) == []
    counters = {"run": {"acked": 1}}
    assert harness.audit_violations(recorder, cluster, "end", counters) == []
    assert counters["audit"]["ops_recorded"] > 0
    table = harness.Result("audited", counters, [], []).to_table()
    assert "\naudit\ncounter" in table and "ops_recorded" in table
    assert "VIOLATION" not in table


def test_a_result_is_its_components_counters_timeline_and_violations():
    env, cluster = kv_cluster()
    cluster.note("fault", "crash", 1)
    result = harness.Result(
        "kv — seed 0", {"run": {"acked": 3}, **harness.snapshot(
            wal=cluster.workers[1].wal)}, list(cluster.timeline),
        ["kv: acked > 3 does not hold (3 > 3)"],
        series={"acked": [(0.0, 1), (5.0, 2)]})
    assert not result.ok
    assert result.counters["wal"] == cluster.workers[1].wal.stats()
    lines = result.to_table().splitlines()
    assert lines[0] == "kv — seed 0"
    assert lines[1].split() == ["t(s)", "acked"]
    assert "timeline" in lines and "wal" in lines
    assert lines[-1] == "VIOLATION: kv: acked > 3 does not hold (3 > 3)"
