"""Fig. 2 — "Offloading queries, throughput".

N concurrent clients each repeatedly run a table-scan-plus-sort query.
Left bars: both operators on the data node.  Right bars: the sort
(blocking, offloadable) runs on a second node.

Paper shape: at 1 concurrent query the all-local plan wins (no network
detour); as concurrency grows the data node saturates and the offloaded
plan's extra CPU and buffer pay off — throughput becomes substantially
higher than the single-node case.
"""

from __future__ import annotations

from repro.engine import ExecContext
from repro.engine.planner import plan_scan_sort
from repro.experiments import harness

#: ``run_fig2`` arguments of the CLI's ``--quick`` (``--full``: defaults).
QUICK_FIG2 = {"rows": 800, "concurrency_levels": (1, 10, 100), "window": 15.0}


def shape(result: harness.Result) -> list[str]:
    """Local wins the isolated query, offloading wins once the node
    saturates, and they cross inside the paper's 1..100 band."""
    local_qps = result.counters["local_qps"]
    offloaded_qps = result.counters["offloaded_qps"]
    return harness.shape_violations("Fig. 2", {
        "local_qps": local_qps, "offloaded_qps": offloaded_qps,
        "crossover": next((n for n in local_qps
                           if offloaded_qps[n] > local_qps[n]), None),
        "low": min(local_qps), "high": max(local_qps),
    }, ["local_qps[low] > offloaded_qps[low]",
        "offloaded_qps[high] > 1.3 * local_qps[high]",
        "1 < crossover <= 100"])


def _run_level(rows: int, concurrency: int, offload: bool,
               window: float, vector_size: int) -> float:
    table = harness.build_micro_cluster(rows)
    harness.warm_buffer(table)
    cluster = table.cluster
    env = cluster.env
    owner = cluster.workers[0]
    helper = cluster.workers[1]
    completed = [0]
    deadline = env.now + window

    def client():
        while env.now < deadline:
            ctx = ExecContext(env=env, vector_size=vector_size)
            plan = plan_scan_sort(
                ctx, cluster, owner, table.partition, ["val"],
                sort_on=helper if offload else owner,
                prefetch_depth=2 if offload else 0,
            )
            result = yield from plan.drain()
            if len(result) != table.rows:
                raise RuntimeError("sort lost rows")
            if env.now <= deadline:
                completed[0] += 1

    procs = [env.process(client()) for _ in range(concurrency)]
    for proc in procs:
        env.run(until=proc)
    return completed[0] / window


def run_fig2(rows: int = 1_000,
             concurrency_levels: tuple[int, ...] = (1, 10, 100, 1000),
             window: float = 30.0,
             vector_size: int = 256) -> harness.Result:
    """Sweep concurrency for both placements: scan+sort queries per
    second, keyed by concurrent queries."""
    qps: dict[str, dict[int, float]] = {"local_qps": {}, "offloaded_qps": {}}
    for n in concurrency_levels:
        for name, offload in (("local_qps", False), ("offloaded_qps", True)):
            qps[name][n] = _run_level(rows, n, offload=offload, window=window,
                                      vector_size=vector_size)
    result = harness.Result(
        "Fig. 2 — scan+sort throughput (qps) by concurrent queries, "
        "local vs. offloaded sort", qps, [], [])
    result.violations = shape(result)
    return result
