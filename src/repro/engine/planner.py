"""Distributed plan construction and operator placement.

"The query optimizer tries to put pipelining operators on the same node
to minimize latencies ...  In contrast, blocking operators may be
placed on remote nodes to equally distribute query processing."
(Sect. 3.3)  The helpers here encode exactly that placement policy and
are what the Fig. 1 / Fig. 2 experiments drive.
"""

from __future__ import annotations

import typing

from repro.engine.exchange import PrefetchBuffer, RemoteExchange
from repro.engine.operators import Project, Sort, TableScan
from repro.engine.row_source import ExecContext, Operator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode


def exchange_between(ctx: ExecContext, cluster: "Cluster", child: Operator,
                     producer: "WorkerNode", consumer: "WorkerNode",
                     prefetch_depth: int = 0) -> Operator:
    """Wrap ``child`` (running on ``producer``) for consumption on
    ``consumer``; optionally add the paper's buffering operator."""
    if producer is consumer:
        return child
    shipped: Operator = RemoteExchange(
        ctx, child, cluster.network,
        producer_cpu=producer.cpu, producer_port=producer.port,
        consumer_cpu=consumer.cpu, consumer_port=consumer.port,
    )
    if prefetch_depth > 0:
        shipped = PrefetchBuffer(ctx, shipped, depth=prefetch_depth)
    return shipped


def plan_scan_project(ctx: ExecContext, cluster: "Cluster",
                      owner: "WorkerNode", partition,
                      columns: typing.Sequence[str],
                      project_on: "WorkerNode | None" = None,
                      prefetch_depth: int = 0) -> Operator:
    """The Fig. 1 plan family: TBSCAN on the data owner, PROJECT either
    local (default) or on ``project_on``."""
    scan = TableScan(ctx, owner, partition)
    consumer = project_on or owner
    source = exchange_between(ctx, cluster, scan, owner, consumer,
                              prefetch_depth)
    return Project(ctx, consumer.cpu, source, columns)


def plan_scan_sort(ctx: ExecContext, cluster: "Cluster",
                   owner: "WorkerNode", partition,
                   sort_columns: typing.Sequence[str],
                   sort_on: "WorkerNode | None" = None,
                   prefetch_depth: int = 0) -> Operator:
    """The Fig. 2 plan family: TBSCAN on the owner, SORT local or
    offloaded to ``sort_on`` (a blocking operator, hence offloadable)."""
    scan = TableScan(ctx, owner, partition)
    consumer = sort_on or owner
    source = exchange_between(ctx, cluster, scan, owner, consumer,
                              prefetch_depth)
    return Sort(ctx, consumer.cpu, source, sort_columns)
