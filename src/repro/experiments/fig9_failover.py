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
import typing

from repro.experiments import harness
from repro.workload import TpccConfig, start_vacuum_daemon

#: A post-crash qps bucket counts as "recovered" at this fraction of
#: the pre-crash baseline.
RECOVERY_QPS_FRACTION = 0.7


@dataclasses.dataclass
class Fig9Config:
    """Failover experiment parameters."""

    tpcc: TpccConfig = harness.HA_TPCC
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

    #: Failure detection: missed heartbeats before a node is declared
    #: failed.
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


def run_fig9_single(k: int, config: Fig9Config | None = None
                    ) -> harness.Result:
    """One crash-and-recover run at replication factor ``k``."""
    config = config or Fig9Config()
    ha = harness.ha_tpcc(config, k)
    env, cluster = ha.env, ha.cluster
    replicas_seeded = sum(
        len(rs.replicas) for rs in cluster.catalog.replica_sets.values()
    )
    crash_abs = ha.t_start + config.crash_at
    crash_node = config.data_nodes[0]
    ha.injector.crash_at(crash_abs, crash_node)
    if config.restart_after is not None:
        ha.injector.restart_at(crash_abs + config.restart_after, crash_node)

    # Audited runs bound the vacuum daemon to the workload's end so the
    # drained simulation is a stable subject for the offline checkers.
    start_vacuum_daemon(
        cluster, interval=config.vacuum_interval,
        until=(ha.t_start + config.duration) if config.audit else None,
    )
    env.process(cluster.monitor.run(), name="monitor")
    env.process(ha.detector.run(), name="failure-detector")
    env.process(ha.injector.run(), name="fault-injector")
    env.run(until=env.process(ha.driver.run(config.duration),
                              name="workload"))

    # -- metrics (time axis shifted so the crash is t=0) -------------------
    window = (ha.t_start, ha.t_start + config.duration, config.bucket)
    qps = harness.shift(ha.driver.qps_series(*window), crash_abs)
    response_ms = harness.shift(ha.driver.response_series(*window), crash_abs)

    pre = [v for t, v in qps if t < 0 and v is not None]
    baseline = sum(pre) / len(pre) if pre else 0.0
    post = [v for t, v in qps if t >= 0 and v is not None]
    min_after = min(post) if post else 0.0
    # Clamped at 0: on small runs the post-crash minimum can exceed the
    # noisy pre-crash baseline, which is "no dip", not a negative one.
    dip = max(0.0, 1.0 - (min_after / baseline)) if baseline > 0 else 0.0

    failover_events = [e for e in cluster.timeline if e.source == "failover"]
    counters, violations = harness.ha_counters(ha, {
        "k": k,
        "baseline_qps": baseline,
        "min_qps_after_crash": min_after,
        "dip_fraction": round(dip, 3),
        "detection_seconds": next(
            (e.time - crash_abs for e in failover_events
             if e.kind == "node_failed" and e.node_id == crash_node), None),
        # crash -> promotion/handling done
        "failover_seconds": next(
            (r["completed_at"] - crash_abs for r in ha.coordinator.recoveries
             if r["node_id"] == crash_node), None),
        "throughput_recovery_seconds": next(
            (t for t, v in qps if t >= 0 and v is not None and baseline > 0
             and v >= RECOVERY_QPS_FRACTION * baseline), None),
        "unavailable_partitions": sum(
            e.kind == "partition_unavailable" for e in failover_events),
        "replicas_seeded": replicas_seeded,
        "commits_shipped": ha.replication.commits_shipped,
        "bytes_shipped": ha.replication.bytes_shipped,
    })
    return harness.Result(
        f"Fig. 9 — failover at k={k}: crash at t=0, one data node killed",
        counters, list(cluster.timeline), violations,
        series={"qps": qps, "response_ms": response_ms},
    )


def suite(runs: typing.Sequence[harness.Result]) -> harness.Result:
    """The sweep's gate: k >= 2 promotes and stays available, k = 1
    degrades gracefully, no k loses an acknowledged commit — audited or
    not."""
    ks = sorted(run.counters["run"]["k"] for run in runs)
    claims = [" < ".join(f"k[{k}].replicas_seeded" for k in ks)]
    for k in ks:
        claims += [f"k[{k}].lost_commits == 0"] + (
            ["k[1].promotions == 0", "k[1].unavailable_partitions > 0"]
            if k == 1 else
            [f"k[{k}].promotions > 0",
             f"k[{k}].unavailable_partitions == 0",
             f"k[{k}].committed_orders > 0",
             f"k[{k}].detection_seconds >= 0",
             f"k[{k}].failover_seconds >= 0"])
    return harness.Result(
        "Fig. 9 — the sweep over k = " + ", ".join(map(str, ks)), {}, [],
        harness.shape_violations(
            "Fig. 9", {"k": harness.by_run_key(runs, "k")}, claims))


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
