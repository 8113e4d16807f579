"""Endurance mode — hours-long audited runs with a bounded footprint.

The paper's energy argument is measured over whole diurnal load cycles
(Sect. 6; the companion trace work), but every harness in this repo so
far runs for a minute or two of simulated time.  What breaks between
minute two and hour twenty is never the steady state — it is the
*unbounded accumulators*: a WAL that only grows, dead MVCC versions
that outlive every snapshot, an audit history that records forever,
and a recovery pass that replays from the beginning of time.

This experiment is the acceptance gate for the endurance machinery:

* a **diurnal workload** — seeded writers whose think time follows a
  sinusoidal day curve, so the cluster sees real peaks and valleys;
* **fuzzy checkpoints** (:mod:`repro.txn.checkpoint`) on a fixed
  cadence, recycling WAL segments behind the
  ``min(checkpoint, replication, moves)`` horizon;
* **power-aware incremental vacuum**
  (:mod:`repro.cluster.vacuum`) reclaiming dead versions in bounded
  chunks, deferring busy nodes;
* **periodic chaos** — the primary data node is crash-killed and
  restarted on a seeded cadence; the failure detector promotes the
  replica, the workload rides through on retries;
* **windowed audits** — the run is cut into windows; at each quiescent
  boundary the isolation checkers (:mod:`repro.audit`) judge the
  window's history and the recorder is reset, so audit memory is
  bounded by one window regardless of run length.

After the last window a **recovery drill** rebuilds the primary
partition from its newest checkpoint image plus the WAL suffix alone
and compares it row-for-row with the live committed state — proving
the recycled log still recovers, and that replay length is bounded by
the checkpoint interval, not the run length.

Invariants asserted (``EnduranceResult.violations``):

1. every acknowledged write reads back with the acknowledged value;
2. WAL footprint stays bounded: no live record is older than the
   recycling horizon, on any node, after any checkpoint;
3. the recovery drill's replay starts at the last checkpoint's
   ``redo_lsn`` and reproduces the committed state exactly;
4. zero isolation anomalies in any audit window;
5. the run sustained the configured commit target.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing

from repro.cluster.cluster import Cluster
from repro.cluster.vacuum import VacuumPolicy, VacuumScheduler
from repro.experiments import harness
from repro.ha import (
    FailoverCoordinator,
    FailureDetector,
    FaultInjector,
    ReplicationManager,
)
from repro.metrics.report import render_counters, render_table
from repro.sim.engine import Environment
from repro.sim.events import AllOf
from repro.txn import recovery
from repro.txn.checkpoint import CheckpointManager, iter_committed_rows

# Cluster roles: master 0 (never injured), primary 1, replica holder 2.
PRIMARY_NODE = 1
REPLICATION_FACTOR = 2
MONITOR_INTERVAL = 1.0
#: Drain allowance after each window's writers finish, so the audit
#: judges a quiescent cluster.
SETTLE_SECONDS = 3.0
#: Think time = base / (1 + amplitude * sin(2pi t/P)).
DIURNAL_AMPLITUDE = 0.6
WRITER_RETRIES = 8
#: A chaos crash restarts the victim this long after killing it.
CRASH_OUTAGE = 8.0
AUDIT_COVERAGE_INTERVAL = 5.0
#: Coverage snapshots per window are deduped and capped so the
#: recorder's memory cannot scale with window length.
AUDIT_COVERAGE_CAPACITY = 256


@dataclasses.dataclass
class EnduranceConfig:
    """One endurance run: cluster shape, day curve, daemon cadences."""

    seed: int = 0

    node_count: int = 3
    buffer_pages_per_node: int = 1024
    segment_max_pages: int = 8
    page_bytes: int = 2048
    lock_timeout: float = 2.0
    boot_seconds: float = 5.0
    rows: int = 400

    # Timeline: ``windows`` audit windows of ``window_seconds`` each.
    windows: int = 4
    window_seconds: float = 60.0

    # Diurnal curve (see DIURNAL_AMPLITUDE).
    writers: int = 4
    base_interval: float = 0.2
    diurnal_period: float = 120.0

    # Daemon cadences.
    checkpoint_interval: float = 10.0
    vacuum_policy: VacuumPolicy = dataclasses.field(
        default_factory=lambda: VacuumPolicy(
            interval=5.0, chunk_versions=512,
            max_reclaim_per_tick=4096, load_threshold=0.95,
        ))
    compact_replicas_over: int = 2048

    # Chaos: crash the current primary mid-window every N windows.
    crash_every_windows: int = 2
    miss_threshold: int = 3

    #: Windowed isolation audit (the endurance story; off only for
    #: timing runs).
    audit: bool = True

    #: The sustained-throughput gate (acceptance: the full
    #: configuration must clear 1e6 committed transactions).
    min_commits: int = 1000


@dataclasses.dataclass
class WindowResult:
    """One audit window's verdict and counters."""

    index: int
    t0: float
    t1: float
    acked: int
    exhausted: int
    anomalies: list[str]
    history_stats: dict[str, int]

    def to_row(self) -> list:
        return [
            self.index,
            round(self.t0, 1),
            round(self.t1, 1),
            self.acked,
            self.exhausted,
            self.history_stats.get("ops_recorded", 0),
            self.history_stats.get("coverage_taken", 0),
            self.history_stats.get("coverage_deduped", 0),
            "clean" if not self.anomalies else f"{len(self.anomalies)}",
        ]


@dataclasses.dataclass
class EnduranceResult:
    seed: int
    violations: list[str]
    windows: list[WindowResult]
    acked_writes: int
    exhausted_writes: int
    crashes: int
    promotions: int
    checkpoint_stats: dict[str, int]
    vacuum_stats: dict[str, int]
    wal_stats: dict[int, dict[str, int]]
    replication_stats: dict[str, int]
    drill: dict[str, int]
    audited: bool = False

    WINDOW_HEADERS = ["win", "t0", "t1", "acked", "exhausted", "ops",
                      "coverage", "deduped", "audit"]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_anomalies(self) -> int:
        return sum(len(w.anomalies) for w in self.windows)

    def to_table(self) -> str:
        parts = [render_table(
            self.WINDOW_HEADERS, [w.to_row() for w in self.windows],
            title=f"endurance — seed {self.seed}, "
                  f"{self.acked_writes} commits, "
                  f"{self.crashes} crashes, {self.promotions} promotions",
        )]
        parts += [render_counters(f"node {node_id} WAL",
                                  self.wal_stats[node_id])
                  for node_id in sorted(self.wal_stats)]
        parts.append(render_counters("checkpoints (cluster)",
                                     self.checkpoint_stats))
        parts.append(render_counters("vacuum (cluster)", self.vacuum_stats))
        if self.drill:
            parts.append(
                "recovery drill: image rows %(image_rows)d + replayed "
                "%(analyzed_records)d records from LSN %(start_lsn)d "
                "(log tail %(next_lsn)d)" % self.drill
            )
        lines = ["\n".join(parts)]
        for violation in self.violations:
            lines.append(f"ENDURANCE VIOLATION: {violation}")
        lines.append(
            f"{len(self.windows)} windows, {self.total_anomalies} isolation "
            f"anomalies, {len(self.violations)} violations"
        )
        return "\n".join(lines)


# -- build ------------------------------------------------------------------

def _build(config: EnduranceConfig) -> tuple[Environment, Cluster]:
    env = Environment(seed=config.seed)
    cluster = Cluster(
        env, node_count=config.node_count,
        initially_active=config.node_count,
        buffer_pages_per_node=config.buffer_pages_per_node,
        segment_max_pages=config.segment_max_pages,
        page_bytes=config.page_bytes,
        boot_seconds=config.boot_seconds,
        lock_timeout=config.lock_timeout,
    )
    cluster.monitor.interval = MONITOR_INTERVAL
    harness.kv_cluster_rows(cluster, PRIMARY_NODE, config.rows)
    return env, cluster


def _chaos_victim(cluster: Cluster) -> int | None:
    """The current kv primary — or, when a promotion has landed the
    primary on node 0 (the master, the fixed single point that is never
    injured), a live replica holder instead.  None when every candidate
    is the master."""
    location = cluster.master.gpt.locate("kv", 0)
    if location.node_id != 0:
        return location.node_id
    replica_set = cluster.catalog.replica_set_for(location.partition_id)
    if replica_set is not None:
        for replica in replica_set.replicas:
            if replica.holder_node_id != 0:
                return replica.holder_node_id
    return None


def _diurnal_interval(config: EnduranceConfig, now: float) -> float:
    load = 1.0 + DIURNAL_AMPLITUDE * math.sin(
        2.0 * math.pi * now / config.diurnal_period
    )
    return config.base_interval / max(load, 0.1)


# -- the run ----------------------------------------------------------------

def run_endurance(config: EnduranceConfig | None = None,
                  seed: int | None = None) -> EnduranceResult:
    """One seeded endurance run: windows of diurnal load with periodic
    chaos, audited at each quiescent boundary, drilled at the end."""
    config = config or EnduranceConfig()
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    env, cluster = _build(config)

    replication = ReplicationManager(cluster, k=REPLICATION_FACTOR)
    coordinator = FailoverCoordinator(cluster, replication)
    detector = FailureDetector(cluster, coordinator,
                               miss_threshold=config.miss_threshold)
    env.run(until=env.process(replication.protect_all(), name="protect"))

    recorder = None
    if config.audit:
        from repro.audit import HistoryRecorder

        recorder = HistoryRecorder(
            coverage_capacity=AUDIT_COVERAGE_CAPACITY,
            dedupe_coverage=True,
        ).attach(cluster)

    checkpoints = CheckpointManager(
        cluster, replication,
        interval=config.checkpoint_interval,
        compact_replicas_over=config.compact_replicas_over,
    ).start()
    vacuum = VacuumScheduler(cluster, config.vacuum_policy).start()
    env.process(cluster.monitor.run(), name="monitor")
    env.process(detector.run(), name="failure-detector")

    # -- seeded streams, independent of simulation timing ---------------
    writer_rng = random.Random(config.seed * 104729 + 31)
    chaos_rng = random.Random(config.seed * 7919 + 17)

    oracle: dict[int, str] = {}
    acked = exhausted = 0
    violations: list[str] = []
    window_results: list[WindowResult] = []
    crashes = 0

    def writer(writer_id: int, until: float):
        nonlocal acked, exhausted
        seq = 0
        while env.now < until:
            yield env.timeout(_diurnal_interval(config, env.now))
            if env.now >= until:
                break
            seq += 1
            if writer_rng.random() < 0.7:
                key = writer_rng.randrange(config.rows)
                value = f"w{writer_id}-u{env.now:.0f}-{seq}"
                op = "update"
            else:
                key = 10_000 + writer_id * 1_000_000 + seq
                value = f"w{writer_id}-i{seq}"
                op = "insert"
            if (yield from harness.kv_write_with_retries(
                    cluster, op, key, value, WRITER_RETRIES)):
                oracle[key] = value
                acked += 1
            else:
                exhausted += 1

    def coverage_loop(until: float):
        while env.now < until:
            step = min(AUDIT_COVERAGE_INTERVAL, until - env.now)
            if step <= 0:
                break
            yield env.timeout(step)
            recorder.checkpoint_coverage(cluster.master.gpt, env.now,
                                         "endurance")

    # -- windows ---------------------------------------------------------
    for window in range(config.windows):
        t0 = env.now
        t_end = t0 + config.window_seconds
        window_acked, window_exhausted = acked, exhausted

        procs = [
            env.process(writer(i, t_end), name=f"endurance-writer-{i}")
            for i in range(config.writers)
        ]
        if recorder is not None:
            recorder.checkpoint_coverage(cluster.master.gpt, env.now,
                                         f"window-{window}-start")
            procs.append(env.process(coverage_loop(t_end),
                                     name="audit-coverage"))

        # Periodic chaos: kill the *current* primary mid-window; the
        # detector promotes the replica, the restart rejoins as holder.
        if (config.crash_every_windows
                and window % config.crash_every_windows == 1):
            victim = _chaos_victim(cluster)
            if victim is not None:
                crash_at = t0 + config.window_seconds * chaos_rng.uniform(
                    0.2, 0.4
                )
                injector = FaultInjector(cluster)
                injector.crash_at(crash_at, victim)
                injector.restart_at(crash_at + CRASH_OUTAGE, victim)
                procs.append(env.process(injector.run(),
                                         name=f"endurance-chaos-{window}"))
                crashes += 1

        env.run(until=AllOf(env, procs))
        # Quiesce: let in-flight commits, shipments, and daemon rounds
        # land before judging the window.
        env.run(until=env.now + SETTLE_SECONDS)

        anomalies, history_stats = harness.audit_epilogue(
            recorder, cluster, f"window-{window}-end")
        if recorder is not None:
            recorder.reset_window()
        window_results.append(WindowResult(
            index=window, t0=t0, t1=env.now,
            acked=acked - window_acked,
            exhausted=exhausted - window_exhausted,
            anomalies=anomalies, history_stats=history_stats,
        ))

    checkpoints.stop()
    vacuum.stop()

    # -- invariant 1: acknowledged writes read back ----------------------
    violations += harness.kv_readback(env, cluster, oracle)

    # -- invariant 2: bounded WAL footprint ------------------------------
    if checkpoints.peak_footprint_slack > 0:
        violations.append(
            f"WAL footprint unbounded: {checkpoints.peak_footprint_slack} "
            f"live records past the horizon"
        )
    if checkpoints.checkpoints_taken == 0:
        violations.append("no checkpoint was ever taken")
    if checkpoints.records_recycled == 0:
        violations.append("no WAL record was ever recycled")

    # -- invariant 3: the recovery drill ---------------------------------
    drill = _recovery_drill(cluster, violations)

    # -- invariant 4 & 5: audit + throughput -----------------------------
    for result in window_results:
        for anomaly in result.anomalies:
            violations.append(
                f"window {result.index}: ISOLATION ANOMALY: {anomaly}"
            )
    if acked < config.min_commits:
        violations.append(
            f"sustained only {acked} commits (target {config.min_commits})"
        )

    return EnduranceResult(
        seed=config.seed,
        violations=violations,
        windows=window_results,
        acked_writes=acked,
        exhausted_writes=exhausted,
        crashes=crashes,
        promotions=len(coordinator.promotions),
        checkpoint_stats=checkpoints.stats(),
        vacuum_stats=vacuum.stats(),
        wal_stats={
            worker.node_id: worker.wal.stats()
            for worker in cluster.workers
        },
        replication_stats={
            "commits_shipped": replication.commits_shipped,
            "records_shipped": replication.records_shipped,
            "bytes_shipped": replication.bytes_shipped,
            "ship_failures": replication.ship_failures,
        },
        drill=drill,
        audited=config.audit,
    )


def _recovery_drill(cluster: Cluster, violations: list[str]) -> dict[str, int]:
    """Crash-less recovery rehearsal on the current primary: rebuild the
    partition from checkpoint image + WAL suffix into a scratch
    partition and diff against the live committed rows."""
    location = cluster.master.gpt.locate("kv", 0)
    worker = cluster.worker(location.node_id)
    partition = worker.partitions.get(location.partition_id)
    if partition is None:
        violations.append("recovery drill: primary partition not hosted "
                          f"on node {location.node_id}")
        return {}
    image = worker.checkpoint_images.get(location.partition_id)
    if image is None:
        violations.append("recovery drill: no checkpoint image on the "
                          "primary (checkpoint daemon never covered it)")
        return {}

    expected = {key: values
                for key, values, _nbytes in iter_committed_rows(partition)}
    scratch = cluster.catalog.new_partition("kv", worker.node_id)
    report = recovery.recover_worker_table(worker.wal, scratch, "kv",
                                           image=image)
    rebuilt: dict = {}
    for segment in scratch.segments.values():
        for _page, _slot, version in segment.scan_versions():
            if version.deleted_ts is None:
                rebuilt[version.key] = tuple(version.values)

    if rebuilt != expected:
        missing = sorted(set(expected) - set(rebuilt))[:5]
        extra = sorted(set(rebuilt) - set(expected))[:5]
        changed = [k for k in sorted(set(rebuilt) & set(expected))
                   if rebuilt[k] != expected[k]][:5]
        violations.append(
            f"recovery drill diverged: {len(expected)} live vs "
            f"{len(rebuilt)} rebuilt rows (missing {missing}, "
            f"extra {extra}, changed {changed})"
        )
    log = worker.wal
    # Replay must start at the last checkpoint's redo point — i.e. be
    # bounded by the checkpoint interval, not by run length.
    if report.start_lsn < log.last_checkpoint_redo_lsn:
        violations.append(
            f"recovery drill replayed from LSN {report.start_lsn}, "
            f"before the checkpoint redo point "
            f"{log.last_checkpoint_redo_lsn}"
        )
    bound = log._next_lsn - log.last_checkpoint_redo_lsn + 1
    if report.analyzed_records > bound:
        violations.append(
            f"recovery drill replayed {report.analyzed_records} records, "
            f"more than the checkpoint-bounded suffix ({bound})"
        )
    return {
        "image_rows": report.image_rows,
        "analyzed_records": report.analyzed_records,
        "start_lsn": report.start_lsn,
        "next_lsn": log._next_lsn,
    }


# -- configurations ---------------------------------------------------------

def quick_endurance_config() -> EnduranceConfig:
    """CI smoke scale: a couple of minutes of simulated time."""
    return EnduranceConfig(
        windows=2, window_seconds=40.0, writers=4, base_interval=0.2,
        rows=200, checkpoint_interval=8.0, min_commits=500,
        vacuum_policy=VacuumPolicy(interval=4.0, chunk_versions=256,
                                   max_reclaim_per_tick=2048,
                                   load_threshold=0.95),
    )


def full_endurance_config() -> EnduranceConfig:
    """The acceptance scale: a simulated day, >= 1e6 commits."""
    return EnduranceConfig(
        windows=24, window_seconds=3600.0, writers=12,
        base_interval=0.04, rows=2000, diurnal_period=86_400.0,
        checkpoint_interval=30.0, crash_every_windows=4,
        min_commits=1_000_000,
        vacuum_policy=VacuumPolicy(interval=15.0, chunk_versions=2048,
                                   max_reclaim_per_tick=16_384,
                                   load_threshold=0.9),
    )


def render_endurance(result: EnduranceResult) -> str:
    return result.to_table()
