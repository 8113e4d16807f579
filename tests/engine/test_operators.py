"""Operator correctness tests on a loaded cluster."""

import pytest

from repro.engine import Project, Sort, TableScan
from tests.engine.conftest import make_ctx


def drain(env, op):
    return env.run(until=env.process(op.drain()))


def test_table_scan_returns_all_rows(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    rows = drain(env, scan)
    assert len(rows) == 200
    assert sorted(r[0] for r in rows) == list(range(200))
    assert scan.pages_read > 0
    assert scan.rows_produced == 200


def test_table_scan_vector_size_one(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env, vector_size=1)
    scan = TableScan(ctx, worker, partition)

    def probe():
        yield from scan.open()
        first = yield from scan.next_vector()
        second = yield from scan.next_vector()
        yield from scan.close()
        return first, second

    first, second = env.run(until=env.process(probe()))
    assert len(first) == 1
    assert len(second) == 1


def test_table_scan_respects_mvcc_snapshot(loaded):
    env, cluster, worker, partition = loaded
    reader = cluster.txns.begin()
    master = cluster.master

    def mutate_then_scan():
        writer = cluster.txns.begin()
        yield from master.insert("items", (999, 0, 0.0, "new"), writer)
        yield from cluster.txns.commit(writer)
        ctx = make_ctx(env, txn=reader)
        scan = TableScan(ctx, worker, partition)
        rows = yield from scan.drain()
        return rows

    rows = env.run(until=env.process(mutate_then_scan()))
    # The reader's snapshot predates the insert of key 999.
    assert sorted(r[0] for r in rows) == list(range(200))


def test_project(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    project = Project(ctx, worker.cpu, scan, ["val", "id"])
    rows = drain(env, project)
    assert len(rows) == 200
    assert rows[0] == (float(rows[0][1]), rows[0][1])
    assert [c.name for c in project.output_columns] == ["val", "id"]


def test_project_unknown_column(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    with pytest.raises(KeyError):
        Project(ctx, worker.cpu, scan, ["nope"])


def test_sort_orders_rows(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    sort = Sort(ctx, worker.cpu, scan, ["val"], reverse=True)
    rows = drain(env, sort)
    values = [r[2] for r in rows]
    assert values == sorted(values, reverse=True)


def test_sort_charges_cpu_time(loaded):
    env, cluster, worker, partition = loaded
    before = worker.cpu.tracker.integral()
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    drain(env, Sort(ctx, worker.cpu, scan, ["id"]))
    assert worker.cpu.tracker.integral() > before


def test_scan_buffer_hits_on_second_pass(loaded):
    env, cluster, worker, partition = loaded
    drain(env, TableScan(make_ctx(env), worker, partition))
    misses_after_first = worker.buffer.misses
    drain(env, TableScan(make_ctx(env), worker, partition))
    assert worker.buffer.misses == misses_after_first  # all hits
    assert worker.buffer.hits > 0
