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

import dataclasses

from repro.engine import ExecContext
from repro.engine.planner import plan_scan_sort
from repro.metrics.report import render_table
from repro.experiments.harness import (
    build_micro_cluster,
    shape_violations,
    warm_buffer,
)

#: ``run_fig2`` arguments of the CLI's ``--quick`` (``--full``: defaults).
QUICK_FIG2 = {"rows": 800, "concurrency_levels": (1, 10, 100), "window": 15.0}


@dataclasses.dataclass
class Fig2Result:
    concurrency_levels: list[int]
    local_qps: dict[int, float]
    offloaded_qps: dict[int, float]

    def crossover(self) -> int | None:
        """First concurrency level where offloading wins."""
        for n in self.concurrency_levels:
            if self.offloaded_qps[n] > self.local_qps[n]:
                return n
        return None

    @property
    def violations(self) -> list[str]:
        """Local wins the isolated query, offloading wins once the node
        saturates, and they cross inside the paper's 1..100 band."""
        return shape_violations("Fig. 2", {
            **vars(self), "crossover": self.crossover(),
            "low": self.concurrency_levels[0],
            "high": self.concurrency_levels[-1],
        }, ["local_qps[low] > offloaded_qps[low]",
            "offloaded_qps[high] > 1.3 * local_qps[high]",
            "1 < crossover <= 100"])

    def to_table(self) -> str:
        rows = [
            [n, round(self.local_qps[n], 2), round(self.offloaded_qps[n], 2)]
            for n in self.concurrency_levels
        ]
        return render_table(
            ["concurrent queries", "local sort qps", "offloaded sort qps"],
            rows,
            title="Fig. 2 — scan+sort throughput, local vs. offloaded sort",
        )


def _run_level(rows: int, concurrency: int, offload: bool,
               window: float, vector_size: int) -> float:
    table = build_micro_cluster(rows)
    warm_buffer(table)
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
             vector_size: int = 256) -> Fig2Result:
    """Sweep concurrency for both placements."""
    local = {}
    offloaded = {}
    for n in concurrency_levels:
        local[n] = _run_level(rows, n, offload=False, window=window,
                              vector_size=vector_size)
        offloaded[n] = _run_level(rows, n, offload=True, window=window,
                                  vector_size=vector_size)
    return Fig2Result(
        concurrency_levels=list(concurrency_levels),
        local_qps=local,
        offloaded_qps=offloaded,
    )
