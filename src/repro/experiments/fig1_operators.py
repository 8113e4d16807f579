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

import dataclasses

from repro.engine import ExecContext, TableScan
from repro.engine.planner import plan_scan_project
from repro.hardware import specs
from repro.metrics.report import render_table
from repro.experiments.harness import (
    build_micro_cluster,
    shape_violations,
    warm_buffer,
)


@dataclasses.dataclass
class Fig1Result:
    rows: int
    records_per_second: dict[str, float]

    @property
    def violations(self) -> list[str]:
        """The paper's bands (generous, but ordering-tight), and the
        orderings that define the figure."""
        return shape_violations("Fig. 1", self.records_per_second, [
            "35_000 <= tbscan_local <= 45_000",
            "30_000 <= project_local <= 38_000",
            "project_remote_single < 1_000",
            "20_000 <= project_remote_vectorized <= 28_000",
            "25_000 <= project_remote_buffered <= 34_000",
            "tbscan_local > project_local > project_remote_buffered",
            "project_remote_buffered > project_remote_vectorized",
            "project_remote_vectorized > 20 * project_remote_single",
        ])

    def to_table(self) -> str:
        order = [
            "tbscan_local",
            "project_local",
            "project_remote_single",
            "project_remote_vectorized",
            "project_remote_buffered",
        ]
        return render_table(
            ["configuration", "records/s"],
            [[name, round(self.records_per_second[name])] for name in order],
            title="Fig. 1 — record throughput by operator placement",
        )


def _timed_run(table, build_plan) -> float:
    env = table.cluster.env
    start = env.now
    plan = build_plan()

    def go():
        rows = yield from plan.drain()
        return rows

    rows = env.run(until=env.process(go()))
    elapsed = env.now - start
    if len(rows) != table.rows:
        raise RuntimeError(f"plan lost rows: {len(rows)} != {table.rows}")
    return table.rows / elapsed


def run_fig1(rows: int = 20_000,
             vector_size: int = specs.DEFAULT_VECTOR_SIZE) -> Fig1Result:
    """Run all five configurations (``rows``: the quick preset by default)."""
    table = build_micro_cluster(rows)
    warm_buffer(table)
    cluster = table.cluster
    env = cluster.env
    owner = cluster.workers[0]
    remote = cluster.workers[1]
    results: dict[str, float] = {}

    def ctx(v):
        return ExecContext(env=env, vector_size=v)

    # 1. Local table scan alone (vectorised next() calls, all local).
    results["tbscan_local"] = _timed_run(
        table, lambda: TableScan(ctx(vector_size), owner, table.partition)
    )

    # 2. + local projection.
    results["project_local"] = _timed_run(
        table, lambda: plan_scan_project(
            ctx(vector_size), cluster, owner, table.partition,
            ["id", "val"], project_on=owner,
        )
    )

    # 3. Remote projection, one record per call.
    results["project_remote_single"] = _timed_run(
        table, lambda: plan_scan_project(
            ctx(1), cluster, owner, table.partition,
            ["id", "val"], project_on=remote,
        )
    )

    # 4. Remote projection, vectorised calls.
    results["project_remote_vectorized"] = _timed_run(
        table, lambda: plan_scan_project(
            ctx(vector_size), cluster, owner, table.partition,
            ["id", "val"], project_on=remote,
        )
    )

    # 5. Remote projection with the buffering (prefetch) operator.
    results["project_remote_buffered"] = _timed_run(
        table, lambda: plan_scan_project(
            ctx(vector_size), cluster, owner, table.partition,
            ["id", "val"], project_on=remote, prefetch_depth=3,
        )
    )

    return Fig1Result(rows=rows, records_per_second=results)
