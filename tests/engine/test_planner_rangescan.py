"""Tests for the plan construction helpers."""

from repro.engine.planner import (
    exchange_between,
    plan_scan_project,
    plan_scan_sort,
)
from tests.engine.conftest import make_ctx


def drain(env, op):
    return env.run(until=env.process(op.drain()))


class TestPlanner:
    def test_exchange_between_same_node_is_identity(self, loaded):
        env, cluster, worker, partition = loaded
        from repro.engine import TableScan

        ctx = make_ctx(env)
        scan = TableScan(ctx, worker, partition)
        assert exchange_between(ctx, cluster, scan, worker, worker) is scan

    def test_exchange_between_nodes_wraps(self, loaded):
        env, cluster, worker, partition = loaded
        from repro.engine import RemoteExchange, TableScan

        ctx = make_ctx(env)
        scan = TableScan(ctx, worker, partition)
        wrapped = exchange_between(
            ctx, cluster, scan, worker, cluster.workers[1]
        )
        assert isinstance(wrapped, RemoteExchange)

    def test_prefetch_depth_adds_buffer(self, loaded):
        env, cluster, worker, partition = loaded
        from repro.engine import PrefetchBuffer, TableScan

        ctx = make_ctx(env)
        scan = TableScan(ctx, worker, partition)
        wrapped = exchange_between(
            ctx, cluster, scan, worker, cluster.workers[1], prefetch_depth=2
        )
        assert isinstance(wrapped, PrefetchBuffer)

    def test_plan_scan_project_rows(self, loaded):
        env, cluster, worker, partition = loaded
        ctx = make_ctx(env)
        plan = plan_scan_project(
            ctx, cluster, worker, partition, ["id"],
            project_on=cluster.workers[1],
        )
        rows = drain(env, plan)
        assert sorted(r[0] for r in rows) == list(range(200))

    def test_plan_scan_sort_rows(self, loaded):
        env, cluster, worker, partition = loaded
        ctx = make_ctx(env)
        plan = plan_scan_sort(
            ctx, cluster, worker, partition, ["val"],
            sort_on=cluster.workers[1],
        )
        rows = drain(env, plan)
        values = [r[2] for r in rows]
        assert values == sorted(values)
