"""Fig. 6 — the main experiment: rebalancing under a TPC-C mix.

"Starting with two nodes, hosting the data and processing queries, we
instruct WattDB to perform a repartitioning of all tables and migrate
50% of the records to two additional nodes.  We measure response time,
throughput, and power consumption of the cluster before, during and
after the repartitioning.  We repeated the experiment on all three
types of partitioning schemes." (Sect. 5.1)

Panels: (a) throughput qps, (b) avg response time ms, (c) power W,
(d) energy per query J — all over time relative to the rebalance start.

Scaling substitution (see DESIGN.md): the paper's 100 GB TPC-C SF-1000
database is represented by a scaled TPC-C working set plus a *ballast*
table of blob rows that carries the byte volume the migration has to
ship, so migration occupies a realistic share of the timeline while the
hot working set stays laptop-sized.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core import (
    LogicalPartitioning,
    PartitioningScheme,
    PhysicalPartitioning,
    PhysiologicalPartitioning,
    Rebalancer,
)
from repro.cluster.cluster import Cluster
from repro.experiments import harness
from repro.index.global_table import PartitionLocation
from repro.index.partition_tree import KeyRange
from repro.sim.engine import Environment
from repro.sim.events import AllOf
from repro.storage.record import Column, Schema
from repro.workload import (
    TpccConfig,
    TpccContext,
    WorkloadDriver,
    start_vacuum_daemon,
)
from repro.workload.tpcc_gen import fast_insert, warehouse_ranges
from repro.workload.tpcc_schema import WAREHOUSE_PARTITIONED

SCHEMES: dict[str, typing.Callable[[], PartitioningScheme]] = {
    "physical": PhysicalPartitioning,
    "logical": LogicalPartitioning,
    "physiological": PhysiologicalPartitioning,
}


@dataclasses.dataclass
class Fig6Config:
    """Scaled experiment parameters (see module docstring)."""

    # Workload.  The pad blob gives customer/stock the paper-scale
    # DRAM-to-data imbalance (SF 1000 on 2 GB nodes => disk-bound).
    tpcc: TpccConfig = dataclasses.field(default_factory=lambda: TpccConfig(
        warehouses=8, districts_per_warehouse=10,
        customers_per_district=40, items=400, orders_per_district=15,
        order_lines_per_order=5, pad_blob_bytes=8192,
    ))
    clients: int = 6
    client_interval: float = 0.4

    # Ballast: the byte volume the migration must ship.
    ballast_rows_per_warehouse: int = 12000
    ballast_blob_bytes: int = 32 * 1024

    # Cluster.
    node_count: int = 6
    #: Per-node drives: WAL on the first HDD, data on the rest.  The
    #: paper's database lives (mostly) on spinning disks — "the main
    #: bottleneck for repartitioning seems to be the bandwidth to the
    #: storage subsystem" — so data defaults to HDD here.
    disk_specs: tuple = None  # set in __post_init__
    page_bytes: int = 64 * 1024
    segment_max_pages: int = 512          # 32 MiB ballast segments
    #: TPC-C tables use small segments so a 50% move is really 50%.
    tpcc_segment_max_pages: int = 8
    #: Deliberately small: the paper's nodes had 2 GB DRAM against a
    #: 100 GB database, so queries are disk-bound.
    buffer_pages_per_node: int = 256      # 16 MiB of 64 KiB pages
    lock_timeout: float = 2.0

    # Timeline (seconds; rebalance starts at t=0 on the plot axis).
    warmup: float = 60.0
    tail: float = 240.0
    bucket: float = 10.0

    # Migration.
    fraction: float = 0.5
    source_nodes: tuple[int, int] = (0, 1)
    target_nodes: tuple[int, int] = (2, 3)
    helper_nodes: tuple[int, ...] = ()

    vacuum_interval: float = 10.0

    #: Record the operation history and run the isolation checkers
    #: post-hoc (repro.audit).  Off by default: baselines and
    #: determinism goldens fingerprint audit-off runs.
    audit: bool = False

    def __post_init__(self):
        if self.disk_specs is None:
            from repro.hardware import HDD_SPEC

            # One spindle for WAL *and* data: the paper's conclusion —
            # "the main bottleneck for repartitioning seems to be the
            # bandwidth to the storage subsystem" — requires logging,
            # query I/O, and migration to share it.
            self.disk_specs = (HDD_SPEC,)


class Fig6Result(harness.Result):
    """A Fig. 6 cell.  ``perfledger/`` resolves ``migration_seconds`` on
    this class and reads it after a run, so it stays a read-only view of
    the counters."""

    migration_seconds = property(
        lambda self: self.counters["run"]["migration_seconds"])


def _response_ms(cell: harness.Result, lo: float, hi: float) -> float | None:
    return harness.mean_between(cell.series["resp_ms"], lo, hi)


def shape(cell: harness.Result) -> list[str]:
    """This scheme's Fig. 6 shape (Sect. 5.2) in mean response ms
    before / during / 20 s after the move, and that the run did the
    work the figure is about — the breadth floors are the 100-node
    profile's 10 000 records and 100 MiB, restated per warehouse."""
    run = cell.counters["run"]
    moved = run["migration_seconds"]
    return harness.shape_violations(f"Fig. 6 [{run['scheme']}]", {
        **run, "before": _response_ms(cell, -run["warmup"], 0),
        "during": _response_ms(cell, 0, moved),
        "after": _response_ms(cell, moved + 20, run["tail"]),
    }, ["total_completed > 0",
        "rebalance_finished < warmup + tail",
        "records_moved > 10 * warehouses",
        "bytes_moved / 2**20 > 0.1 * warehouses"] + {
        "physical": ["during > before", "after > 0.6 * before"],
        "logical": ["during > 1.2 * before"],
        "physiological": ["after < 1.1 * before"],
    }.get(run["scheme"], []))


def compare(runs: typing.Sequence[Fig6Result]) -> harness.Result:
    """The orderings across the three schemes' runs that *are* Fig. 6
    (Sect. 5.2); a window some scheme has no samples in is not compared."""
    cells = {run.counters["run"]["scheme"]: run for run in runs}
    tail = cells["physical"].counters["run"]["tail"]
    settled = max(run.migration_seconds for run in runs) + 20
    values = {
        **harness.by_run_key(runs, "scheme"), "max": max, "min": min,
        "after": {name: _response_ms(cell, settled, tail)
                  for name, cell in cells.items()},
        "during": {name: _response_ms(cell, 0, cell.migration_seconds)
                   for name, cell in cells.items()},
        "watts": [w for w in (harness.mean_between(run.series["watts"], 0,
                                                   tail) for run in runs)
                  if w is not None],
    }
    claims = ["physiological.migration_seconds < logical.migration_seconds",
              "physical.migration_seconds < logical.migration_seconds",
              "max(watts) < 1.25 * min(watts)"]
    if None not in values["after"].values():
        claims += ["after['physical'] > 2 * after['physiological']",
                   "after['physical'] > 2 * after['logical']"]
    if None not in values["during"].values():
        claims += ["during['logical'] >= during['physiological']",
                   "during['logical'] >= during['physical']"]
    return harness.Result(
        "Fig. 6 — the three schemes' orderings", {}, [],
        harness.shape_violations("Fig. 6", values, claims))


def _ballast_pad_bytes(config: Fig6Config) -> Schema:
    return Schema(
        [Column("b_w_id"), Column("b_id"),
         Column("payload", "blob", width=config.ballast_blob_bytes)],
        key=("b_w_id", "b_id"),
    )


def build_fig6_cluster(config: Fig6Config) -> tuple[Environment, Cluster]:
    """Cluster + TPC-C + ballast, data on the two source nodes."""
    # The paper ran all measurement nodes powered throughout ("Because
    # the same number of machines was used, power consumption is
    # almost identical in all cases") — only the data moves at t=0.
    active = len(config.source_nodes) + len(config.target_nodes)
    # The environment seed is fixed; runs differ through ``tpcc.seed``.
    env, cluster = harness.tpcc_cluster(
        0, config.tpcc, owners=config.source_nodes,
        load_segment_max_pages=config.tpcc_segment_max_pages,
        node_count=config.node_count, initially_active=active,
        disk_specs=config.disk_specs,
        buffer_pages_per_node=config.buffer_pages_per_node,
        segment_max_pages=config.segment_max_pages,
        page_bytes=config.page_bytes,
        lock_timeout=config.lock_timeout,
    )
    owners = [cluster.worker(n) for n in config.source_nodes]

    # Ballast table: partitioned by warehouse like the rest.
    schema = _ballast_pad_bytes(config)
    table_def = cluster.catalog.define_table("ballast", schema)
    for key_range, owner in warehouse_ranges(config.tpcc, owners,
                                             single_column=False):
        partition = cluster.catalog.new_partition(table_def, owner.node_id)
        partition.bounds = key_range
        owner.add_partition(partition)
        cluster.master.gpt.register(
            "ballast", key_range,
            PartitionLocation(partition.partition_id, owner.node_id),
        )
        # Warehouse-aligned initial segments (see tpcc_gen).
        for w in range(1, config.tpcc.warehouses + 1):
            if key_range.contains((w,)):
                partition.new_segment(KeyRange((w,), (w + 1,)))
    for w in range(1, config.tpcc.warehouses + 1):
        location = cluster.master.gpt.locate("ballast", (w, 1))
        worker = cluster.worker(location.node_id)
        partition = worker.partitions[location.partition_id]
        for b in range(1, config.ballast_rows_per_warehouse + 1):
            fast_insert(worker, partition, (w, b, ""))
    return env, cluster


def migration_tables() -> list[str]:
    """Everything repartitioned in the experiment ("a repartitioning of
    all tables"): the warehouse-partitioned TPC-C tables plus ballast.
    The item catalog is read-only reference data on the master.

    Ballast goes first: it carries the byte volume, so the hot tables'
    ownership transfers only once the bulk of the data has moved — at
    full scale every table is bulky, and relief likewise arrives only
    "as soon as the majority of segments is transferred" (Sect. 5.2).
    """
    return ["ballast"] + list(WAREHOUSE_PARTITIONED)


def run_fig6(scheme: str | PartitioningScheme,
             config: Fig6Config | None = None,
             instrument: typing.Callable[[Environment, Cluster], None]
             | None = None) -> Fig6Result:
    """One full Fig. 6 (or Fig. 8, with helpers) run for one scheme.

    ``instrument``, if given, is called with the freshly built
    ``(env, cluster)`` before the workload starts — the determinism
    harness uses it to attach a checkpoint recorder.
    """
    config = config or Fig6Config()
    if isinstance(scheme, str):
        scheme_obj = SCHEMES[scheme]()
    else:
        scheme_obj = scheme
    env, cluster = build_fig6_cluster(config)
    if instrument is not None:
        instrument(env, cluster)
    ctx = TpccContext(cluster, config.tpcc)
    driver = WorkloadDriver(
        cluster, ctx, clients=config.clients,
        client_interval=config.client_interval,
        power_sample_interval=min(5.0, config.bucket),
        audit=config.audit,
    )
    # Audited runs bound the vacuum daemon to the workload's end so the
    # drained simulation is a stable subject for the offline checkers;
    # unaudited runs keep the historical unbounded schedule (goldens).
    start_vacuum_daemon(
        cluster, interval=config.vacuum_interval,
        until=(config.warmup + config.tail) if config.audit else None,
    )
    env.process(cluster.monitor.run(), name="monitor")
    rebalancer = Rebalancer(cluster, scheme_obj)
    marks: dict[str, float] = {}

    def migration():
        yield env.timeout(config.warmup)
        marks["start"] = env.now
        if config.helper_nodes:
            sources = [cluster.worker(n) for n in config.source_nodes]
            yield from rebalancer.helper_protocol.engage(
                sources, list(config.helper_nodes)
            )
        # Pair each source with one target and run both in parallel.
        moves = []
        for source_id, target_id in zip(config.source_nodes,
                                        config.target_nodes):
            moves.append(env.process(
                rebalancer.scale_out(
                    migration_tables(), [source_id], [target_id],
                    fraction=config.fraction,
                ),
                name=f"migrate-{source_id}->{target_id}",
            ))
        yield AllOf(env, moves)
        # "after rebalancing, the additional nodes should be turned off
        # again to improve energy efficiency" (Sect. 5.2).
        if config.helper_nodes:
            yield from rebalancer.helper_protocol.disengage()
        marks["end"] = env.now

    migration_proc = env.process(migration(), name="migration")
    workload_proc = env.process(
        driver.run(config.warmup + config.tail), name="workload"
    )
    env.run(until=workload_proc)
    if "end" not in marks:
        env.run(until=migration_proc)
        marks.setdefault("end", env.now)

    moved = marks["end"] - marks["start"]
    counters = {
        "run": {
            "scheme": scheme_obj.name,
            "warmup": config.warmup,
            "tail": config.tail,
            "warehouses": config.tpcc.warehouses,
            "rebalance_started": marks["start"],
            "rebalance_finished": marks["end"],
            "migration_seconds": moved,
            "total_completed": driver.total_completed,
            "total_failed": driver.total_failed,
            "conflicts": driver.conflicts,
            "bytes_moved": sum(r.bytes_copied for r in rebalancer.reports),
            "records_moved": sum(r.records_moved for r in rebalancer.reports),
        },
        "breakdown normal": driver.mean_breakdown(0, marks["start"]).as_dict(),
        "breakdown rebalancing": driver.mean_breakdown(
            marks["start"], marks["end"]).as_dict(),
    }
    audit = harness.audit_violations(driver.history, cluster, "post-run",
                                     counters)
    result = Fig6Result(
        f"Fig. 6 [{scheme_obj.name}] — rebalance at t=0, migration took "
        f"{moved:.0f}s", counters, [], [],
        series=harness.panels(driver, config.warmup + config.tail,
                              config.bucket, marks["start"]))
    result.violations = shape(result) + audit
    return result


def scale_fig6_config(nodes: int = 100, partitions: int = 10_000) -> Fig6Config:
    """The 100-node sweep profile (``fig6 --nodes 100 --partitions 10000``).

    The paper's companion wimpy-cluster study (arXiv:1407.0386) shows the
    energy/performance trade-offs only emerge at node counts far beyond
    the 4-active-node Fig. 6 run, so this profile scales *out* instead of
    *up*: ``nodes`` workers, half of them sources and half targets, and
    ``partitions`` logical partitions — each warehouse contributes one
    slice of each of the ~10 TPC-C tables (8 warehouse-partitioned
    tables + ballast + the item catalog), so ``partitions // 10``
    warehouses carry the requested partition count.

    Per-warehouse row counts are slimmed way down (the point is breadth
    of the partition map and the 50-way parallel migration, not
    per-warehouse depth), and the per-node buffer stays small so the
    scale run keeps the disk-bound character of the original.
    """
    if nodes < 4 or nodes % 2:
        raise ValueError(f"scale profile needs an even node count >= 4, got {nodes}")
    if partitions < 10 * (nodes // 2):
        raise ValueError(
            f"need >= 10 partitions per source node ({10 * (nodes // 2)}), "
            f"got {partitions}")
    warehouses = max(nodes // 2, partitions // 10)
    half = nodes // 2
    return Fig6Config(
        tpcc=TpccConfig(
            warehouses=warehouses, districts_per_warehouse=2,
            customers_per_district=3, items=25,
            orders_per_district=2, order_lines_per_order=3,
            pad_blob_bytes=2048,
        ),
        clients=max(6, nodes // 8), client_interval=0.4,
        ballast_rows_per_warehouse=40, ballast_blob_bytes=16 * 1024,
        node_count=nodes,
        buffer_pages_per_node=128,
        warmup=20.0, tail=60.0, bucket=10.0,
        source_nodes=tuple(range(half)),
        target_nodes=tuple(range(half, nodes)),
    )


def quick_fig6_config() -> Fig6Config:
    """Reduced parameters for fast runs (CLI --quick, tier-1, examples):
    same regime as the defaults — disk-bound hot set, ballast-weighted
    migration — on a shorter timeline with less ballast."""
    return Fig6Config(
        tpcc=TpccConfig(
            warehouses=8, districts_per_warehouse=10,
            customers_per_district=40, items=400,
            orders_per_district=15, order_lines_per_order=5,
            pad_blob_bytes=8192,
        ),
        clients=6, client_interval=0.4,
        ballast_rows_per_warehouse=8000, ballast_blob_bytes=32 * 1024,
        buffer_pages_per_node=256,
        node_count=6, warmup=40.0, tail=140.0, bucket=10.0,
    )
