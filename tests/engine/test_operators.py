"""Operator correctness tests on a loaded cluster."""

import pytest

from repro.engine import (
    Filter,
    GroupAggregate,
    IndexLookup,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
    TableScan,
)
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


def test_index_lookup_hit_and_miss(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    hit = drain(env, IndexLookup(ctx, worker, partition, key=42))
    assert hit == [(42, 2, 42.0, "x" * 20)]
    miss = drain(env, IndexLookup(make_ctx(env), worker, partition, key=4242))
    assert miss == []


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


def test_filter(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    keep_even = Filter(ctx, worker.cpu, scan, lambda row: row[0] % 2 == 0)
    rows = drain(env, keep_even)
    assert len(rows) == 100
    assert all(r[0] % 2 == 0 for r in rows)


def test_limit(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env, vector_size=7)
    scan = TableScan(ctx, worker, partition)
    rows = drain(env, Limit(ctx, scan, 10))
    assert len(rows) == 10


def test_limit_validation(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    with pytest.raises(ValueError):
        Limit(ctx, scan, -1)


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


def test_group_aggregate(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    agg = GroupAggregate(
        ctx, worker.cpu, scan, ["grp"],
        [("count", None), ("sum", "val"), ("min", "val"),
         ("max", "val"), ("avg", "val")],
    )
    rows = drain(env, agg)
    assert len(rows) == 5  # groups 0..4
    by_group = {r[0]: r for r in rows}
    # Group 0 holds ids 0,5,...,195.
    expected_ids = list(range(0, 200, 5))
    assert by_group[0][1] == len(expected_ids)
    assert by_group[0][2] == pytest.approx(sum(float(i) for i in expected_ids))
    assert by_group[0][3] == 0.0
    assert by_group[0][4] == 195.0
    assert by_group[0][5] == pytest.approx(sum(expected_ids) / len(expected_ids))


def test_group_aggregate_validation(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    with pytest.raises(ValueError):
        GroupAggregate(ctx, worker.cpu, scan, ["grp"], [("median", "val")])
    with pytest.raises(ValueError):
        GroupAggregate(ctx, worker.cpu, scan, ["grp"], [("sum", None)])


def test_nested_loop_join(loaded):
    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    left = TableScan(ctx, worker, partition)
    left_limited = Limit(ctx, left, 10)
    right = Limit(ctx, TableScan(ctx, worker, partition), 10)
    join = NestedLoopJoin(
        ctx, worker.cpu, left_limited, right,
        predicate=lambda l, r: l[0] == r[0],
    )
    rows = drain(env, join)
    assert len(rows) == 10
    for row in rows:
        assert row[0] == row[4]  # id == id


def test_scan_buffer_hits_on_second_pass(loaded):
    env, cluster, worker, partition = loaded
    drain(env, TableScan(make_ctx(env), worker, partition))
    misses_after_first = worker.buffer.misses
    drain(env, TableScan(make_ctx(env), worker, partition))
    assert worker.buffer.misses == misses_after_first  # all hits
    assert worker.buffer.hits > 0


def test_hash_join(loaded):
    from repro.engine import HashJoin, Limit

    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    left = Limit(ctx, TableScan(ctx, worker, partition), 20)
    right = Limit(ctx, TableScan(ctx, worker, partition), 50)
    join = HashJoin(ctx, worker.cpu, left, right, ["id"], ["id"])
    rows = drain(env, join)
    assert len(rows) == 20
    for row in rows:
        assert row[0] == row[4]
    assert join.build_rows == 50
    assert join.probe_rows == 20


def test_hash_join_on_group_column(loaded):
    from repro.engine import HashJoin, Limit

    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    left = Limit(ctx, TableScan(ctx, worker, partition), 5)
    right = TableScan(ctx, worker, partition)
    join = HashJoin(ctx, worker.cpu, left, right, ["grp"], ["grp"])
    rows = drain(env, join)
    # Each of the 5 probe rows matches 40 build rows (200 / 5 groups).
    assert len(rows) == 5 * 40


def test_hash_join_validation(loaded):
    from repro.engine import HashJoin

    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    scan = TableScan(ctx, worker, partition)
    with pytest.raises(ValueError):
        HashJoin(ctx, worker.cpu, scan, scan, ["id"], [])


def test_hash_join_no_matches(loaded):
    from repro.engine import Filter, HashJoin, Limit

    env, cluster, worker, partition = loaded
    ctx = make_ctx(env)
    left = Filter(ctx, worker.cpu, TableScan(ctx, worker, partition),
                  lambda r: r[0] < 3)
    right = Filter(ctx, worker.cpu, TableScan(ctx, worker, partition),
                   lambda r: r[0] > 100)
    join = HashJoin(ctx, worker.cpu, left, right, ["id"], ["id"])
    rows = drain(env, join)
    assert rows == []
