"""Live-cluster audit integration: the recorder hooks capture a real
workload's operations, and the checkers certify the run clean."""

import pytest

from repro import Cluster, Environment
from repro.audit import HistoryRecorder, History, audit_history
from repro.audit.history import ACK, BEGIN, COMMIT, READ, WRITE
from repro.metrics.report import render_counters
from repro.storage import Column, Schema
from repro.workload import TpccConfig, TpccContext, WorkloadDriver, load_tpcc

SCHEMA = Schema([Column("id"), Column("v", "str", width=24)], key=("id",))


@pytest.fixture()
def rig():
    env = Environment()
    cluster = Cluster(
        env, node_count=3, initially_active=2,
        buffer_pages_per_node=2048, segment_max_pages=16, page_bytes=2048,
    )
    config = TpccConfig(
        warehouses=2, districts_per_warehouse=2, customers_per_district=10,
        items=50, orders_per_district=10, order_lines_per_order=3,
    )
    load_tpcc(cluster, config, owners=[cluster.workers[0], cluster.workers[1]])
    ctx = TpccContext(cluster, config)
    return env, cluster, ctx


def test_audited_workload_is_clean_and_complete(rig):
    env, cluster, ctx = rig
    driver = WorkloadDriver(cluster, ctx, clients=4, client_interval=0.5,
                            audit=True)
    assert cluster.txns.history is driver.history
    env.run(until=env.process(driver.run(20.0)))
    recorder = driver.history
    stats = recorder.stats()
    # Every lifecycle hook fired: the mix always begins/commits, reads
    # rows, writes rows, and acks completed queries.
    for kind in (BEGIN, READ, WRITE, COMMIT, ACK):
        assert stats[kind] > 0, f"no {kind} operations recorded"
    # The client acks exactly the completed queries, and the meter loop
    # snapshotted coverage at run-start plus every power sample.
    assert stats[ACK] == driver.total_completed
    assert stats[COMMIT] == cluster.txns.committed_count
    assert stats["coverage_checkpoints"] >= 2
    assert stats["ops_dropped"] == 0

    report = audit_history(recorder, cluster)
    assert report.ok, report.descriptions()
    # The evidence volume renders as one counters table, every key.
    table = render_counters("audit", report.stats)
    assert all(key in table for key in report.stats)


def test_audit_off_records_nothing(rig):
    env, cluster, ctx = rig
    driver = WorkloadDriver(cluster, ctx, clients=2, client_interval=0.5)
    assert driver.history is None
    assert cluster.txns.history is None
    env.run(until=env.process(driver.run(5.0)))
    assert cluster.txns.history is None


def test_recorder_ring_overflow_is_accounted():
    env = Environment()
    cluster = Cluster(env, node_count=1, initially_active=1,
                      segment_max_pages=16, page_bytes=2048)
    owner = cluster.workers[0]
    cluster.master.create_table("kv", SCHEMA, owner=owner)
    recorder = HistoryRecorder(capacity=16).attach(cluster)

    def work():
        for i in range(40):
            txn = cluster.txns.begin()
            yield from cluster.master.insert("kv", (i, f"v{i}"), txn)
            yield from cluster.txns.commit(txn)

    env.run(until=env.process(work()))
    stats = recorder.stats()
    assert len(recorder) == 16
    assert stats["ops_recorded"] == 40 * 3
    assert stats["ops_dropped"] == 40 * 3 - 16
    # A truncated history still audits (conservatively) clean.
    assert audit_history(recorder).ok


def test_recorder_validates_capacity():
    with pytest.raises(ValueError):
        HistoryRecorder(capacity=0)


def test_manual_transactions_record_prev_versions():
    """Updates and deletes capture the superseded version's identity —
    the raw material for the lost-update and G0 checkers."""
    env = Environment()
    cluster = Cluster(env, node_count=1, initially_active=1,
                      segment_max_pages=16, page_bytes=2048)
    owner = cluster.workers[0]
    cluster.master.create_table("kv", SCHEMA, owner=owner)
    recorder = HistoryRecorder().attach(cluster)

    def work():
        t1 = cluster.txns.begin()
        yield from cluster.master.insert("kv", (1, "a"), t1)
        yield from cluster.txns.commit(t1)
        t2 = cluster.txns.begin()
        yield from cluster.master.update("kv", 1, (1, "b"), t2)
        yield from cluster.txns.commit(t2)
        t3 = cluster.txns.begin()
        yield from cluster.master.delete("kv", 1, t3)
        yield from cluster.txns.commit(t3)
        t4 = cluster.txns.begin()
        row = yield from cluster.master.read("kv", 1, t4)
        assert row is None
        yield from cluster.txns.commit(t4)

    env.run(until=env.process(work()))
    history = History.from_recorder(recorder)
    writes = history.writes
    assert [op.subkind for op in writes] == ["insert", "update", "delete"]
    insert, update, delete = writes
    assert insert.prev_writer is None
    assert update.prev_writer == insert.txn_id
    assert update.prev_ts == history.commit_ts[insert.txn_id]
    assert delete.prev_writer == update.txn_id
    # The post-delete read miss is recorded and judged consistent.
    assert any(op.value is None for op in history.reads)
    recorder.checkpoint_coverage(cluster.master.gpt, env.now, "end")
    assert audit_history(recorder, cluster).ok
