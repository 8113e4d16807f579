"""Fig. 9 (extension) — failover under replication factors k = 1, 2, 3.

Not a figure of the source paper: WattDB's evaluation powers nodes off
deliberately and never kills one mid-workload, but its own design
argument — wimpy commodity nodes joining and leaving the cluster —
makes node loss the expected case.  This experiment measures what the
repro.ha subsystem adds: a TPC-C mix runs against partitions spread
over two data nodes, one owner is crash-killed mid-run, and we record

* the throughput dip (bucketed qps around the crash vs. the pre-crash
  baseline),
* the recovery time (crash -> heartbeat-staleness detection ->
  replica promotion finished),
* lost committed transactions (every acknowledged NewOrder's order row
  is looked up post-run in whatever partition the global partition
  table points at — zero losses required for k >= 2),
* the client-side retry economics (first-try vs. retried commits,
  exhausted retries).

With k = 1 there is no replica to promote: the partition goes
unavailable, clients exhaust their bounded retries cleanly, and
service returns only when the node restarts.  Runs are deterministic:
the same seed yields the same crash schedule and the same metrics.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.experiments import harness
from repro.ha import (
    FailoverCoordinator,
    FailureDetector,
    FaultInjector,
    PlacementPolicy,
    ReplicationManager,
)
from repro.metrics.report import render_retry_lines, render_table
from repro.workload import (
    TpccConfig,
    TpccContext,
    WorkloadDriver,
    start_vacuum_daemon,
)

#: A post-crash qps bucket counts as "recovered" at this fraction of
#: the pre-crash baseline.
RECOVERY_QPS_FRACTION = 0.7


@dataclasses.dataclass
class Fig9Config:
    """Failover experiment parameters."""

    tpcc: TpccConfig = dataclasses.field(default_factory=lambda: TpccConfig(
        warehouses=6, districts_per_warehouse=4,
        customers_per_district=20, items=200, orders_per_district=10,
        order_lines_per_order=5,
    ))
    clients: int = 8
    client_interval: float = 0.3

    # Cluster.  All nodes active: failover needs live holders.
    node_count: int = 5
    #: Nodes initially owning the TPC-C data.  Deliberately excludes
    #: the master (node 0) — the coordinator is the fixed single point.
    data_nodes: tuple[int, ...] = (1, 2)
    buffer_pages_per_node: int = 1024
    segment_max_pages: int = 8
    lock_timeout: float = 2.0
    #: Placement sees two nodes per modelled rack.
    rack_width: int = 2

    # Replication factors to sweep.
    replication_factors: tuple[int, ...] = (1, 2, 3)

    # Failure detection.
    monitor_interval: float = 1.0
    miss_threshold: int = 3

    # Timeline, relative to workload start (after replica seeding).
    crash_at: float = 40.0
    #: Restart the dead node this long after the crash (None: never).
    #: Needed for k=1 to regain availability.
    restart_after: float | None = 40.0
    duration: float = 140.0
    bucket: float = 5.0

    seed: int = 0
    vacuum_interval: float = 10.0

    #: Record the operation history and run the isolation checkers —
    #: including replica convergence — post-hoc (repro.audit).
    audit: bool = False


@dataclasses.dataclass
class Fig9KResult:
    """One run at one replication factor (crash at t=0 on the axis)."""

    k: int
    qps: list[tuple[float, float]]
    response_ms: list[tuple[float, float | None]]
    baseline_qps: float
    min_qps_after_crash: float
    dip_fraction: float          # 1 - min/baseline (0 = no dip)
    detection_seconds: float | None
    failover_seconds: float | None   # crash -> promotion/handling done
    throughput_recovery_seconds: float | None
    committed_orders: int
    lost_commits: int
    promotions: int
    unavailable_partitions: int
    replicas_seeded: int
    commits_shipped: int
    bytes_shipped: int
    retry_summary: dict[str, typing.Any]
    #: The run's ``Cluster.timeline`` (faults and failover steps).
    events: list
    #: Post-hoc isolation audit (populated when config.audit was set).
    anomalies: list[str] = dataclasses.field(default_factory=list)
    history_stats: dict[str, int] = dataclasses.field(default_factory=dict)
    audited: bool = False

    @property
    def ok(self) -> bool:
        return not self.anomalies

    def to_row(self) -> list:
        return [
            self.k,
            round(self.baseline_qps, 2),
            round(self.min_qps_after_crash, 2),
            round(self.dip_fraction, 3),
            (None if self.detection_seconds is None
             else round(self.detection_seconds, 1)),
            (None if self.failover_seconds is None
             else round(self.failover_seconds, 1)),
            (None if self.throughput_recovery_seconds is None
             else round(self.throughput_recovery_seconds, 1)),
            self.promotions,
            self.unavailable_partitions,
            self.lost_commits,
            self.retry_summary["first_try_completions"],
            self.retry_summary["retried_completions"],
            self.retry_summary["exhausted_failures"],
        ]


@dataclasses.dataclass
class Fig9Result:
    config: Fig9Config
    runs: dict[int, Fig9KResult]

    HEADERS = ["k", "base qps", "min qps", "dip", "detect(s)",
               "failover(s)", "recover(s)", "promoted", "unavail",
               "lost", "1st-try", "retried", "exhausted"]

    @property
    def violations(self) -> list[str]:
        """k >= 2 promotes and stays available, k = 1 degrades
        gracefully, no k loses an acknowledged commit — audited or not."""
        claims = [" < ".join(f"k[{k}].replicas_seeded"
                             for k in sorted(self.runs))]
        for k in sorted(self.runs):
            claims += [f"k[{k}].lost_commits == 0"] + (
                ["k[1].promotions == 0", "k[1].unavailable_partitions > 0"]
                if k == 1 else
                [f"k[{k}].promotions > 0",
                 f"k[{k}].unavailable_partitions == 0",
                 f"k[{k}].committed_orders > 0",
                 f"k[{k}].detection_seconds >= 0",
                 f"k[{k}].failover_seconds >= 0"])
        return harness.shape_violations("Fig. 9", {"k": self.runs}, claims)

    def to_table(self) -> str:
        rows = [self.runs[k].to_row() for k in sorted(self.runs)]
        table = render_table(
            self.HEADERS, rows,
            title="Fig. 9 — failover: crash at t=0, one data node killed",
        )
        labelled = [(f"k={k}", self.runs[k]) for k in sorted(self.runs)]
        return "\n".join(
            [table]
            + render_retry_lines(
                (label, run.retry_summary["retries_by_class"])
                for label, run in labelled)
            + harness.render_anomaly_lines(labelled))


def run_fig9_single(k: int, config: Fig9Config | None = None) -> Fig9KResult:
    """One crash-and-recover run at replication factor ``k``."""
    config = config or Fig9Config()
    env, cluster = harness.tpcc_cluster(
        config.seed, config.tpcc, owners=config.data_nodes,
        load_segment_max_pages=config.segment_max_pages,
        monitor_interval=config.monitor_interval,
        node_count=config.node_count, initially_active=config.node_count,
        buffer_pages_per_node=config.buffer_pages_per_node,
        segment_max_pages=config.segment_max_pages,
        lock_timeout=config.lock_timeout,
    )

    replication = ReplicationManager(
        cluster, k=k,
        policy=PlacementPolicy(cluster, rack_width=config.rack_width),
    )
    coordinator = FailoverCoordinator(cluster, replication)
    detector = FailureDetector(
        cluster, coordinator, miss_threshold=config.miss_threshold
    )

    # Seed replicas before the workload; the crash clock starts after.
    env.run(until=env.process(replication.protect_all(), name="protect"))
    replicas_seeded = sum(
        len(rs.replicas) for rs in cluster.catalog.replica_sets.values()
    )
    t_start = env.now
    crash_abs = t_start + config.crash_at
    crash_node = config.data_nodes[0]

    injector = FaultInjector(cluster)
    injector.crash_at(crash_abs, crash_node)
    if config.restart_after is not None:
        injector.restart_at(crash_abs + config.restart_after, crash_node)

    # The workload RNG derives from the experiment seed so "same seed,
    # same metrics" holds and different seeds genuinely differ.
    ctx = TpccContext(cluster, config.tpcc,
                      rng=random.Random(config.seed * 7919 + 7))
    driver = WorkloadDriver(
        cluster, ctx, clients=config.clients,
        client_interval=config.client_interval,
        power_sample_interval=config.bucket,
        audit=config.audit,
    )
    committed = harness.remember_new_orders(driver)

    # Audited runs bound the vacuum daemon to the workload's end so the
    # drained simulation is a stable subject for the offline checkers.
    start_vacuum_daemon(
        cluster, interval=config.vacuum_interval,
        until=(t_start + config.duration) if config.audit else None,
    )
    env.process(cluster.monitor.run(), name="monitor")
    env.process(detector.run(), name="failure-detector")
    env.process(injector.run(), name="fault-injector")
    workload = env.process(driver.run(config.duration), name="workload")
    env.run(until=workload)

    # -- metrics (time axis shifted so the crash is t=0) -------------------
    qps_abs = driver.qps_series(t_start, t_start + config.duration,
                                config.bucket)
    resp_abs = driver.response_series(t_start, t_start + config.duration,
                                      config.bucket)
    qps = [(t - crash_abs, v) for t, v in qps_abs]
    response_ms = [(t - crash_abs, v) for t, v in resp_abs]

    pre = [v for t, v in qps if t < 0 and v is not None]
    baseline = sum(pre) / len(pre) if pre else 0.0
    post = [v for t, v in qps if t >= 0 and v is not None]
    min_after = min(post) if post else 0.0
    # Clamped at 0: on small runs the post-crash minimum can exceed the
    # noisy pre-crash baseline, which is "no dip", not a negative one.
    dip = max(0.0, 1.0 - (min_after / baseline)) if baseline > 0 else 0.0

    failover_events = [e for e in cluster.timeline if e.source == "failover"]
    detection = next((e.time - crash_abs for e in failover_events
                      if e.kind == "node_failed" and e.node_id == crash_node),
                     None)
    failover = None
    for recovery in coordinator.recoveries:
        if recovery["node_id"] == crash_node:
            failover = recovery["completed_at"] - crash_abs
            break
    recovered = None
    for t, v in qps:
        if t >= 0 and v is not None and baseline > 0 \
                and v >= RECOVERY_QPS_FRACTION * baseline:
            recovered = t
            break

    anomalies, history_stats = harness.audit_epilogue(
        driver.history, cluster, "post-run")

    return Fig9KResult(
        k=k,
        qps=qps,
        response_ms=response_ms,
        baseline_qps=baseline,
        min_qps_after_crash=min_after,
        dip_fraction=dip,
        detection_seconds=detection,
        failover_seconds=failover,
        throughput_recovery_seconds=recovered,
        committed_orders=len(committed),
        lost_commits=harness.lost_new_orders(cluster, committed),
        promotions=len(coordinator.promotions),
        unavailable_partitions=sum(
            e.kind == "partition_unavailable" for e in failover_events),
        replicas_seeded=replicas_seeded,
        commits_shipped=replication.commits_shipped,
        bytes_shipped=replication.bytes_shipped,
        retry_summary=driver.retry_summary(),
        events=list(cluster.timeline),
        anomalies=anomalies,
        history_stats=history_stats,
        audited=config.audit,
    )


def quick_fig9_config() -> Fig9Config:
    """Reduced parameters for fast runs (CLI --quick, tier-1 shapes)."""
    return Fig9Config(
        tpcc=TpccConfig(
            warehouses=4, districts_per_warehouse=3,
            customers_per_district=15, items=100,
            orders_per_district=6, order_lines_per_order=5,
        ),
        clients=5, client_interval=0.4,
        node_count=4, data_nodes=(1, 2),
        crash_at=25.0, restart_after=30.0, duration=90.0, bucket=5.0,
    )
