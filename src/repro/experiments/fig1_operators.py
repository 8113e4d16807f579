"""Fig. 1 — "Micro-benchmark testing record throughput".

Five operator placements over one table:

1. ``TBSCAN``                      — local scan alone          (~40 k rec/s)
2. ``L PROJECT / TBSCAN``          — + local projection        (~34 k rec/s)
3. ``R PROJECT / TBSCAN`` (1 rec)  — projection remote, classic
   one-record volcano calls                                     (< 1 k rec/s)
4. ``R PROJECT / TBSCAN`` (vector) — remote, vectorised         (~24 k rec/s)
5. ``R PROJECT / R BUFFER / TBSCAN`` — + buffering operator     (~30 k rec/s)

The buffering operator asynchronously prefetches vectors across the
exchange, overlapping the producer pipeline with the consumer
projection (Sect. 3.3).
"""

from __future__ import annotations

from repro.engine import ExecContext, TableScan
from repro.engine.planner import plan_scan_project
from repro.hardware import specs
from repro.experiments import harness


def shape(result: harness.Result) -> list[str]:
    """The paper's bands (generous, but ordering-tight), and the
    orderings that define the figure."""
    return harness.shape_violations(
        "Fig. 1", result.counters["records_per_second"], [
            "35_000 <= tbscan_local <= 45_000",
            "30_000 <= project_local <= 38_000",
            "project_remote_single < 1_000",
            "20_000 <= project_remote_vectorized <= 28_000",
            "25_000 <= project_remote_buffered <= 34_000",
            "tbscan_local > project_local > project_remote_buffered",
            "project_remote_buffered > project_remote_vectorized",
            "project_remote_vectorized > 20 * project_remote_single",
        ])


def _timed_run(table, plan) -> float:
    env = table.cluster.env
    start = env.now

    def go():
        rows = yield from plan.drain()
        return rows

    rows = env.run(until=env.process(go()))
    elapsed = env.now - start
    if len(rows) != table.rows:
        raise RuntimeError(f"plan lost rows: {len(rows)} != {table.rows}")
    return table.rows / elapsed


def run_fig1(rows: int = 20_000,
             vector_size: int = specs.DEFAULT_VECTOR_SIZE) -> harness.Result:
    """Run all five configurations (``rows``: the quick preset by default)."""
    table = harness.build_micro_cluster(rows)
    harness.warm_buffer(table)
    cluster = table.cluster
    owner, remote = cluster.workers[0], cluster.workers[1]
    #: ``name: (records per next() call, PROJECT's node, prefetch depth)``;
    #: no node: the local table scan alone.
    placements = {
        "tbscan_local": (vector_size, None, 0),
        "project_local": (vector_size, owner, 0),
        "project_remote_single": (1, remote, 0),
        "project_remote_vectorized": (vector_size, remote, 0),
        # + the buffering operator, prefetching across the exchange.
        "project_remote_buffered": (vector_size, remote, 3),
    }
    records_per_second: dict[str, float] = {}
    for name, (vector, project_on, prefetch) in placements.items():
        ctx = ExecContext(env=cluster.env, vector_size=vector)
        records_per_second[name] = _timed_run(table, (
            TableScan(ctx, owner, table.partition) if project_on is None
            else plan_scan_project(ctx, cluster, owner, table.partition,
                                   ["id", "val"], project_on=project_on,
                                   prefetch_depth=prefetch)))
    result = harness.Result(
        f"Fig. 1 — record throughput by operator placement ({rows} rows)",
        {"records_per_second": records_per_second}, [], [])
    result.violations = shape(result)
    return result
