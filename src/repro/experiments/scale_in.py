"""Extension experiment: the scale-in protocol on a timeline.

The paper describes scale-in — "a scale-in protocol is initiated, which
quiesces the involved nodes from query processing and shifts their data
partitions to nodes currently having sufficient processing capacity"
(Sect. 3.4) — but only evaluates scale-out.  This experiment completes
the picture: a lightly-loaded 4-node cluster centralises onto 2 nodes
at t=0; power drops by roughly two wimpy nodes, response times rise
moderately (fewer disks/CPUs), and energy per query improves — the
energy-proportionality thesis in the quiet half of the load curve.
"""

from __future__ import annotations

import dataclasses

from repro.core import PhysiologicalPartitioning, Rebalancer
from repro.experiments import harness
from repro.workload import TpccConfig, TpccContext, WorkloadDriver
from repro.workload.tpcc_schema import WAREHOUSE_PARTITIONED

#: The cluster, every node powered and holding data until t=0.
NODE_COUNT = 4
#: Nodes quiesced at t=0 (data pulled to the remaining ones).
VICTIMS = (3, 2)


@dataclasses.dataclass
class ScaleInConfig:
    tpcc: TpccConfig = dataclasses.field(default_factory=lambda: TpccConfig(
        warehouses=8, districts_per_warehouse=8,
        customers_per_district=30, items=300, orders_per_district=10,
        order_lines_per_order=4,
    ))
    #: Light load: the regime where running four nodes wastes energy.
    clients: int = 4
    segment_max_pages: int = 8
    warmup: float = 40.0
    tail: float = 120.0
    bucket: float = 10.0


def shape(result: harness.Result) -> list[str]:
    """Two wimpy nodes go dark, energy per query improves and the
    light load is still served: means over [-30, 0) vs [20, 110)."""
    def means(lo, hi):
        return {name: harness.mean_between(result.series[panel], lo, hi)
                for name, panel in (("watts", "watts"), ("qps", "qps"),
                                    ("joules_per_query", "J/query"))}

    return harness.shape_violations("Scale-in", {
        **result.counters["run"], "before": means(-30, 0),
        "after": means(20, 110),
    }, ["active_after < active_before", "total_failed == 0",
        "after['watts'] < before['watts'] - 25",
        "after['joules_per_query'] < 0.8 * before['joules_per_query']",
        "after['qps'] > 0.9 * before['qps']"])


def run_scale_in(config: ScaleInConfig | None = None) -> harness.Result:
    config = config or ScaleInConfig()
    env, cluster = harness.tpcc_cluster(
        0, config.tpcc, owners=None,
        load_segment_max_pages=config.segment_max_pages,
        vacuum_interval=15.0,
        node_count=NODE_COUNT, initially_active=NODE_COUNT,
        buffer_pages_per_node=1024,
        segment_max_pages=config.segment_max_pages,
        lock_timeout=harness.LOCK_TIMEOUT,
    )

    ctx = TpccContext(cluster, config.tpcc)
    driver = WorkloadDriver(
        cluster, ctx, clients=config.clients,
        client_interval=0.5,
        power_sample_interval=min(5.0, config.bucket),
    )
    rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())
    marks: dict[str, float] = {}
    active_before = cluster.active_node_count

    def quiesce():
        yield env.timeout(config.warmup)
        marks["start"] = env.now
        receivers = [
            n for n in range(NODE_COUNT) if n not in VICTIMS
        ]
        for i, victim in enumerate(VICTIMS):
            receiver = receivers[i % len(receivers)]
            yield from rebalancer.scale_in(
                list(WAREHOUSE_PARTITIONED), victim, receiver,
                power_off=False,
            )
        # Extents release only after in-flight work drains; poll.
        for victim in VICTIMS:
            worker = cluster.worker(victim)
            while worker.disk_space.segment_count() > 0:
                yield env.timeout(1.0)
            yield from cluster.power_off(victim)
        marks["end"] = env.now

    quiesce_proc = env.process(quiesce(), name="quiesce")
    workload = env.process(driver.run(config.warmup + config.tail))
    env.run(until=workload)
    if "end" not in marks:
        env.run(until=quiesce_proc)

    quiesce_seconds = marks["end"] - marks["start"]
    result = harness.Result(
        f"Scale-in — {active_before} -> {cluster.active_node_count} nodes "
        f"at t=0 (quiesce took {quiesce_seconds:.0f}s)", {"run": {
            "active_before": active_before,
            "active_after": cluster.active_node_count,
            "quiesce_started": marks["start"],
            "quiesce_finished": marks["end"],
            "quiesce_seconds": quiesce_seconds,
            "total_completed": driver.total_completed,
            "total_failed": driver.total_failed,
        }}, [], [],
        series=harness.panels(driver, config.warmup + config.tail,
                              config.bucket, marks["start"]))
    result.violations = shape(result)
    return result
