"""The read-scaling experiment — replica snapshot reads, the
distributed cache, and materialized views against a single-primary
baseline.

The paper scales *writes* by physiological repartitioning; this
extension scales *reads* without recruiting more spindles: declared
read-only transactions are routed to segment replicas at their MVCC
begin timestamp (:mod:`repro.reads.router`), point reads are absorbed
by a commit-invalidated distributed cache (:mod:`repro.reads.cache`),
and the two TPC-C read profiles get incrementally-maintained
materialized views (:mod:`repro.reads.views`).

Two modes run under the same seed, the same cluster shape, the same
replication factor, and the same fault schedule (a replica-holder
crash + restart, a link sever + restore, one bit-rot corruption):

* ``replica`` — the read tier installed; read-only traffic drains
  through replicas, cache, and views;
* ``primary`` — the baseline: every read goes to the primary copy
  through the buffer pool and the shared HDD spindle.

The workload is read-mostly and disk-hostile on purpose (padded rows,
small buffer pool, one HDD per node): the primary baseline saturates
its spindles while the read tier answers from memory, which is the
throughput-per-watt argument in numbers.

Invariants asserted (``ReadScalingResult.violations``):

1. the run offered at least ``min_requests`` logical requests and
   admission conservation held (offered = admitted + rejected + shed;
   admitted = completed + abandoned);
2. replica mode actually exercised the tier: replica reads, cache
   hits, and view reads all nonzero, and the cache ledger conserved;
3. every quiesced view checkpoint matched a from-scratch recompute
   bit for bit (at least one checkpoint must have been taken);
4. zero anomalies when ``--audit`` is on — including the read-tier
   checkers: staleness bounds, cache coherence, view equivalence;
5. across modes (``compare_read_scaling``): replica mode completed
   more read requests per joule than the primary baseline.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments import harness
from repro.metrics.report import (
    render_counters,
    render_slo_table,
    render_table,
)
from repro.workload import TpccConfig

#: Declared read-only tenant mix: the two TPC-C read profiles plus
#: their materialized-view equivalents.
READ_MIX = (
    ("order_status", 0.40),
    ("stock_level", 0.25),
    ("order_status_view", 0.20),
    ("stock_level_view", 0.15),
)

#: The churn that keeps replicas, cache invalidation, and view
#: maintenance honest.
WRITE_MIX = (
    ("new_order", 0.50),
    ("payment", 0.40),
    ("delivery", 0.10),
)


# Traffic shape (logical requests/second) and replication factor —
# the same in both modes, so the comparison isolates the read path.
READER_RATE = 150.0
READER_USERS = 40_000
WRITER_RATE = 50.0
WRITER_USERS = 8_000
READER_SLO_P99_MS = 30_000.0
REPLICATION_K = 2

# Fault targets (node 0 is the master and is never one).  The
# corruption lands first, while every node is healthy, so the scrubber
# repairs it before either failover replays a replica log.
BIT_ROT_NODE = 1
BIT_ROT_AT_FRACTION = 0.10
SEVER_NODE = 2
CRASH_NODE = 3
#: Scrub cadence — brisk enough that the injected bit rot is found
#: and repaired from a replica before the end-of-run audit.
SCRUB_INTERVAL = 2.0
SCRUB_PAGES_PER_TICK = 512


@dataclasses.dataclass(frozen=True)
class ReadScalingConfig:
    """One mode of the read-scaling comparison."""

    seed: int = 0
    #: ``replica`` (read tier installed) or ``primary`` (baseline).
    mode: str = "replica"

    # Cluster — same disk-bound regime as the elasticity day: the
    # baseline must pay seeks for its reads or there is nothing to
    # scale away from.
    node_count: int = 4
    buffer_pages_per_node: int = 192
    page_bytes: int = 8192
    segment_max_pages: int = 64
    load_segment_max_pages: int = 8
    lock_timeout: float = 2.0

    tpcc: TpccConfig = TpccConfig(
        warehouses=8, districts_per_warehouse=4, customers_per_district=30,
        items=200, orders_per_district=10, order_lines_per_order=4,
        pad_blob_bytes=2048,
    )

    # Traffic (``batch`` logical requests ride one executed
    # transaction).
    duration: float = 240.0
    tick: float = 1.0
    batch: int = 5
    executors: int = 10
    queue_limit: int = 20_000
    retry_budget: float = 15.0

    # Read tier.
    #: Staleness budget in WAL records of replication lag.
    lag_budget: int = 64
    per_tenant_quota: int = 2_048
    view_refresh_interval: float = 0.05
    view_lag_bound: float = 5.0

    # Fault schedule (fractions of ``duration``): the sever and the
    # crash are spaced so each promotion completes before the next
    # fault.
    faults: bool = True
    sever_at_fraction: float = 0.25
    restore_at_fraction: float = 0.40
    crash_at_fraction: float = 0.55
    restart_at_fraction: float = 0.80

    power_sample_interval: float = 5.0
    vacuum_interval: float = 30.0

    audit: bool = False
    #: Acceptance gate on offered logical requests.
    min_requests: int = 40_000


@dataclasses.dataclass
class ReadScalingResult:
    """One mode's outcome — plain data, picklable for run_tasks."""

    mode: str
    seed: int
    violations: list[str]
    offered: int
    completed: int
    #: Completed declared-read-only logical requests (the numerator of
    #: the throughput-per-watt comparison).
    reads_completed: int
    admission: dict[str, int | float]
    tenants: dict[str, dict[str, float | int]]
    #: ``ReadTier.stats()`` ledgers (empty in primary mode).
    tier_stats: dict[str, int | float]
    energy_joules: float
    wall_seconds: float
    wall_events: int
    faults_injected: list[str]
    view_checkpoints: int
    view_checkpoints_matched: int
    anomalies: list[str] = dataclasses.field(default_factory=list)
    history_stats: dict[str, int] = dataclasses.field(default_factory=dict)
    audited: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations and not self.anomalies

    @property
    def reads_per_kilojoule(self) -> float:
        return 1000.0 * self.reads_completed / max(self.energy_joules, 1e-9)

    def summary_row(self) -> list:
        return [
            self.mode, self.offered, self.completed, self.reads_completed,
            round(self.energy_joules / 1000.0, 1),
            round(self.reads_per_kilojoule, 1),
            round(self.wall_seconds, 1),
        ]

    def to_table(self) -> str:
        parts = [render_slo_table(
            self.tenants,
            title=(f"read-scaling [{self.mode}] — seed {self.seed}, "
                   f"{self.offered} requests offered, "
                   f"{self.energy_joules / 1000:.1f} kJ, "
                   f"{self.reads_per_kilojoule:.1f} reads/kJ"),
        )]
        parts.append(render_counters(
            f"[{self.mode}] admission control", self.admission))
        if self.tier_stats:
            parts.append(render_counters(
                f"[{self.mode}] read tier", self.tier_stats))
        if self.faults_injected:
            parts.append(f"[{self.mode}] faults: "
                         + "; ".join(self.faults_injected))
        if self.view_checkpoints:
            parts.append(
                f"[{self.mode}] view checkpoints: "
                f"{self.view_checkpoints_matched}/{self.view_checkpoints} "
                f"matched recompute")
        for violation in self.violations:
            parts.append(f"READ-SCALING VIOLATION [{self.mode}]: {violation}")
        for anomaly in self.anomalies:
            parts.append(f"ISOLATION ANOMALY [{self.mode}]: {anomaly}")
        return "\n".join(parts)


SUMMARY_HEADERS = ["mode", "offered", "completed", "reads", "kJ",
                   "reads/kJ", "wall s"]


# -- tenants ----------------------------------------------------------------

def _tenants(config: ReadScalingConfig):
    from repro.traffic import ConstantArrivals, TenantClass

    readers = TenantClass(
        name="readers",
        users=READER_USERS,
        arrivals=ConstantArrivals(READER_RATE),
        zipf_theta=0.99,
        hot_offset=0,
        mix=READ_MIX,
        slo_p99_ms=READER_SLO_P99_MS,
    )
    writers = TenantClass(
        name="writers",
        users=WRITER_USERS,
        arrivals=ConstantArrivals(WRITER_RATE),
        zipf_theta=0.9,
        hot_offset=2,
        mix=WRITE_MIX,
    )
    return [readers, writers]


# -- the run ----------------------------------------------------------------

def run_read_scaling(config: ReadScalingConfig | None = None,
                     seed: int | None = None) -> ReadScalingResult:
    """One seeded mode of the comparison."""
    from repro.ha.failover import FailoverCoordinator, FailureDetector
    from repro.ha.faults import FaultInjector
    from repro.ha.replication import ReplicationManager
    from repro.ha.scrub import ScrubDaemon, ScrubPolicy
    from repro.hardware import HDD_SPEC
    from repro.traffic import SessionEngine

    # Registers the ``*_view`` transaction bodies for both modes: with
    # no read tier installed they fall back to the primary read path,
    # which is exactly the baseline being measured.
    import repro.reads.views  # noqa: F401

    config = config or ReadScalingConfig()
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    # Both modes spread the data across every (always-on) node: the
    # comparison isolates the read path, not placement.
    env, cluster = harness.tpcc_cluster(
        config.seed, config.tpcc, owners=None,
        load_segment_max_pages=config.load_segment_max_pages,
        vacuum_interval=config.vacuum_interval,
        node_count=config.node_count, initially_active=config.node_count,
        disk_specs=(HDD_SPEC,),
        buffer_pages_per_node=config.buffer_pages_per_node,
        page_bytes=config.page_bytes,
        segment_max_pages=config.segment_max_pages,
        lock_timeout=config.lock_timeout,
    )

    # Both modes carry the same replication factor and failover
    # machinery — the crash in the fault schedule must be survivable
    # either way, and replica upkeep costs the same energy in both.
    replication = ReplicationManager(cluster, k=REPLICATION_K)
    env.run(until=env.process(replication.protect_all(), name="protect"))
    coordinator = FailoverCoordinator(cluster, replication)
    detector = FailureDetector(cluster, coordinator)
    env.process(cluster.monitor.run(), name="monitor")
    env.process(detector.run(), name="failure-detector")
    scrub = ScrubDaemon(
        cluster, replication, coordinator,
        policy=ScrubPolicy(interval=SCRUB_INTERVAL,
                           pages_per_tick=SCRUB_PAGES_PER_TICK),
    ).start()

    tier = None
    if config.mode == "replica":
        from repro.reads import ReadTier

        tier = ReadTier(
            cluster, replication,
            lag_budget=config.lag_budget,
            cache_seed=config.seed,
            per_tenant_quota=config.per_tenant_quota,
            view_refresh_interval=config.view_refresh_interval,
            view_lag_bound=config.view_lag_bound,
        )
        env.process(tier.views.run(), name="view-refresh")

    engine = SessionEngine(
        cluster, config.tpcc, _tenants(config),
        seed=config.seed, tick=config.tick, batch=config.batch,
        executors=config.executors, queue_limit=config.queue_limit,
        retry_budget=config.retry_budget,
    )

    recorder = None
    if config.audit:
        from repro.audit import HistoryRecorder

        recorder = HistoryRecorder().attach(cluster)
        recorder.staleness_budget = float(config.lag_budget)
        recorder.view_lag_bound = config.view_lag_bound

    if config.faults:
        d = config.duration
        injector = FaultInjector(cluster)
        injector.crash_at(d * config.crash_at_fraction, CRASH_NODE)
        injector.restart_at(d * config.restart_at_fraction, CRASH_NODE)
        injector.bit_rot_at(d * BIT_ROT_AT_FRACTION, BIT_ROT_NODE)
        injector.sever_link_at(d * config.sever_at_fraction, SEVER_NODE)
        injector.restore_link_at(d * config.restore_at_fraction, SEVER_NODE)
        env.process(injector.run(), name="fault-injector")

    checkpoint_matches: list[bool] = []
    checkpoint_skips: list[str] = []
    done: list[float] = []

    def try_view_checkpoint(label: str) -> None:
        from repro.storage.checksum import IntegrityError

        # The recompute side of a checkpoint scans pages, so it can
        # trip over injected corruption the scrubber has not repaired
        # yet.  That is detection working, not divergence: skip the
        # attempt and let a post-repair checkpoint do the proving.
        try:
            checkpoint_matches.append(
                tier.views.checkpoint(label, env.now, recorder))
        except IntegrityError:
            checkpoint_skips.append(label)

    def traffic():
        yield from engine.run(config.duration)
        done.append(env.now)

    def meter_loop():
        meter = cluster.meter
        meter.sample()
        if recorder is not None:
            recorder.checkpoint_coverage(cluster.master.gpt, env.now,
                                         "start")
        while not done:
            yield env.timeout(config.power_sample_interval)
            meter.sample()
            if recorder is not None:
                recorder.checkpoint_coverage(cluster.master.gpt, env.now,
                                             "meter")
            # A view checkpoint is only meaningful when no writer is
            # mid-commit: commit timestamps are stamped at commit
            # entry, so a recompute taken mid-commit would see rows
            # the maintenance queue has not been fed yet.
            if tier is not None and not cluster.txns._committing:
                try_view_checkpoint(f"meter-{env.now:.0f}")

    env.process(meter_loop(), name="power-meter")
    env.run(until=env.process(traffic(), name="traffic"))
    scrub.stop()
    cluster.meter.sample()
    if tier is not None and not cluster.txns._committing:
        try_view_checkpoint("final")

    anomalies, history_stats = harness.audit_epilogue(recorder, cluster, "end")

    # -- invariants ------------------------------------------------------
    stats = engine.admission.stats()
    violations = harness.admission_violations(stats, config.min_requests,
                                              "run")

    tier_stats: dict[str, int | float] = {}
    if tier is not None:
        tier_stats = tier.stats()
        if tier.replica_reads_total == 0:
            violations.append("replica path never served a read")
        if tier_stats.get("cache_hits", 0) == 0:
            violations.append("distributed cache never served a hit")
        if not tier.cache.ledger_conserved():
            violations.append(
                "cache ledger leak: lookups != hits + misses, or fills "
                "not accounted as accepted + rejected"
            )
        view_reads = (tier_stats.get("view_reads_order_status", 0)
                      + tier_stats.get("view_reads_stock_level", 0))
        if view_reads == 0:
            violations.append("materialized views never served a read")
        if not checkpoint_matches:
            violations.append("no quiesced view checkpoint was taken")
        elif not all(checkpoint_matches):
            diverged = len(checkpoint_matches) - sum(checkpoint_matches)
            violations.append(
                f"{diverged} view checkpoint(s) diverged from a "
                f"from-scratch recompute"
            )
    for anomaly in anomalies:
        violations.append(f"ISOLATION ANOMALY: {anomaly}")

    tenants_report = engine.tenant_report()
    reads_completed = sum(
        int(row.get("read_requests") or 0)
        for row in tenants_report.values()
    )

    faults_injected = [f"t={e.time:.0f}s {e.kind} node {e.node_id}"
                       for e in cluster.timeline if e.source == "fault"]

    return ReadScalingResult(
        mode=config.mode,
        seed=config.seed,
        violations=violations,
        offered=stats["offered"],
        completed=stats["completed"],
        reads_completed=reads_completed,
        admission=stats,
        tenants=tenants_report,
        tier_stats=tier_stats,
        energy_joules=cluster.energy_joules(),
        wall_seconds=env.now,
        wall_events=env.events_processed,
        faults_injected=faults_injected,
        view_checkpoints=len(checkpoint_matches),
        view_checkpoints_matched=sum(checkpoint_matches),
        anomalies=anomalies,
        history_stats=history_stats,
        audited=config.audit,
    )


# -- the cross-mode gate ----------------------------------------------------

def compare_read_scaling(
        results: typing.Sequence[ReadScalingResult]) -> list[str]:
    """The acceptance gate: replica mode must complete more reads per
    joule than the primary baseline under the same seed and faults."""
    by_mode = {result.mode: result for result in results}
    violations: list[str] = []
    if "replica" in by_mode and "primary" in by_mode:
        replica, primary = by_mode["replica"], by_mode["primary"]
        if replica.reads_per_kilojoule <= primary.reads_per_kilojoule:
            violations.append(
                f"no read scaling: replica "
                f"{replica.reads_per_kilojoule:.1f} reads/kJ <= primary "
                f"{primary.reads_per_kilojoule:.1f} reads/kJ "
                f"(seed {replica.seed})"
            )
    return violations


# -- configurations ---------------------------------------------------------

def quick_read_scaling_config() -> ReadScalingConfig:
    """The default: four minutes of read-mostly open-loop traffic."""
    return ReadScalingConfig()


def full_read_scaling_config() -> ReadScalingConfig:
    """A longer run at the same intensity."""
    return ReadScalingConfig(
        duration=1200.0,
        min_requests=200_000,
        power_sample_interval=15.0,
    )


def render_read_scaling(
        results: typing.Sequence[ReadScalingResult]) -> str:
    """Render the mode suite plus the throughput-per-watt comparison."""
    parts = [render_table(
        SUMMARY_HEADERS, [result.summary_row() for result in results],
        title=(f"read scaling — seed "
               f"{results[0].seed if results else '?'}"),
    )]
    parts += [result.to_table() for result in results]
    by_mode = {result.mode: result for result in results}
    if "replica" in by_mode and "primary" in by_mode:
        replica, primary = by_mode["replica"], by_mode["primary"]
        if primary.reads_per_kilojoule > 0:
            gain = (replica.reads_per_kilojoule
                    / primary.reads_per_kilojoule)
            parts.append(
                f"read throughput per watt: replica "
                f"{replica.reads_per_kilojoule:.1f} reads/kJ vs primary "
                f"{primary.reads_per_kilojoule:.1f} reads/kJ — "
                f"{gain:.2f}x from the read tier"
            )
    for violation in compare_read_scaling(results):
        parts.append(f"READ-SCALING VIOLATION: {violation}")
    return "\n\n".join(parts)
