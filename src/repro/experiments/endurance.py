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

Invariants asserted (the result's ``violations``):

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
import functools
import math
import random

from repro.cluster.cluster import Cluster
from repro.cluster.vacuum import VacuumPolicy, VacuumScheduler
from repro.experiments import harness
from repro.ha import (
    FailoverCoordinator,
    FailureDetector,
    FaultInjector,
    ReplicationManager,
)
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
#: A writer updates a loaded row this often, else inserts a fresh key.
UPDATE_SHARE = 0.7
SEGMENT_MAX_PAGES = 8
#: A chaos crash restarts the victim this long after killing it.
CRASH_OUTAGE = 8.0
AUDIT_COVERAGE_INTERVAL = 5.0
#: Coverage snapshots per window are deduped and capped so the
#: recorder's memory cannot scale with window length.
AUDIT_COVERAGE_CAPACITY = 256


@dataclasses.dataclass
class EnduranceConfig:
    """One endurance run: load, day curve, daemon cadences."""

    seed: int = 0
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

    # Chaos: crash the current primary mid-window every N windows.
    crash_every_windows: int = 2

    #: Windowed isolation audit (the endurance story; off only for
    #: timing runs).
    audit: bool = True

    #: The sustained-throughput gate (acceptance: the full
    #: configuration must clear 1e6 committed transactions).
    min_commits: int = 1000


#: The run's gates over its counters: the commit target sustained,
#: the WAL footprint bounded and actually recycled, and the recovery
#: drill rebuilding the committed state exactly from the last
#: checkpoint's redo point, replaying no more than the suffix after it.
CLAIMS = [
    "acked_writes >= min_commits",
    "peak_footprint_slack == 0", "checkpoints_taken > 0",
    "records_recycled > 0",
    "diverged_rows == 0", "start_lsn >= redo_lsn",
    "analyzed_records <= next_lsn - redo_lsn + 1",
]


# -- build ------------------------------------------------------------------

def _build(config: EnduranceConfig) -> tuple[Environment, Cluster]:
    env = Environment(seed=config.seed)
    cluster = Cluster(
        env, node_count=3, initially_active=3,
        buffer_pages_per_node=1024,
        segment_max_pages=SEGMENT_MAX_PAGES,
        page_bytes=2048,
        boot_seconds=5.0,
        lock_timeout=harness.LOCK_TIMEOUT,
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

def run_endurance(config: EnduranceConfig | None = None) -> harness.Result:
    """One seeded endurance run: windows of diurnal load with periodic
    chaos, audited at each quiescent boundary, drilled at the end."""
    config = config or EnduranceConfig()
    env, cluster = _build(config)

    replication = ReplicationManager(cluster, k=REPLICATION_FACTOR)
    coordinator = FailoverCoordinator(cluster, replication)
    detector = FailureDetector(cluster, coordinator)
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
        compact_replicas_over=2048,
    ).start()
    vacuum = VacuumScheduler(cluster, config.vacuum_policy).start()
    env.process(cluster.monitor.run(), name="monitor")
    env.process(detector.run(), name="failure-detector")

    # -- seeded streams, independent of simulation timing ---------------
    writers = harness.KvWriters(
        cluster, config.rows, UPDATE_SHARE,
        functools.partial(_diurnal_interval, config), config.seed)
    chaos_rng = random.Random(config.seed * 7919 + 17)

    violations: list[str] = []
    #: One row per audit window, keyed by its start.
    windows: dict[str, list] = {}
    window_audit: dict = {}
    crashes = 0

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
        window_acked, window_exhausted = writers.acked, writers.exhausted

        procs = [
            env.process(writers.run(i, t_end), name=f"endurance-writer-{i}")
            for i in range(config.writers)
        ]
        if recorder is not None:
            recorder.checkpoint_coverage(cluster.master.gpt, env.now,
                                         f"window-{window}-start")
            procs.append(env.process(coverage_loop(t_end),
                                     name="audit-coverage"))

        # Periodic chaos: kill the *current* primary mid-window; the
        # detector promotes the replica, the restart rejoins as holder.
        if window % config.crash_every_windows == 1:
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

        violations += [f"window {window}: {anomaly}" for anomaly in
                       harness.audit_violations(recorder, cluster,
                                                f"window-{window}-end",
                                                window_audit)]
        if recorder is not None:
            recorder.reset_window()
        # The recorder's counts run on across windows.
        history = window_audit.get("audit", {})
        for name, value in (
                ("t1", round(env.now, 1)),
                ("acked", writers.acked - window_acked),
                ("exhausted", writers.exhausted - window_exhausted),
                ("ops", history.get("ops_recorded", 0)),
                ("coverage", history.get("coverage_taken", 0)),
                ("deduped", history.get("coverage_deduped", 0))):
            windows.setdefault(name, []).append((round(t0, 1), value))

    checkpoints.stop()
    vacuum.stop()
    violations += harness.kv_readback(env, cluster, writers.oracle)
    drill = _recovery_drill(cluster)
    counters = {
        "run": {"seed": config.seed, "acked_writes": writers.acked,
                "exhausted_writes": writers.exhausted, "crashes": crashes,
                "promotions": len(coordinator.promotions)},
        "retries by class": writers.retries_by_class,
        **harness.snapshot(**{f"node {worker.node_id} WAL": worker.wal
                              for worker in cluster.workers},
                           checkpoints=checkpoints, vacuum=vacuum),
        "drill": drill,
        **window_audit,
    }
    violations += harness.shape_violations("endurance", {
        **counters["run"], **counters["checkpoints"], **drill,
        "min_commits": config.min_commits}, CLAIMS)
    return harness.Result(
        f"endurance — seed {config.seed}, {writers.acked} commits, "
        f"{crashes} crashes, {len(coordinator.promotions)} promotions",
        counters, list(cluster.timeline), violations, series=windows)


def _recovery_drill(cluster: Cluster) -> dict:
    """Crash-less recovery rehearsal on the current primary: rebuild the
    partition from checkpoint image + WAL suffix into a scratch
    partition and diff it against the live committed rows.  Every value
    is None — every drill claim fails for want of samples — when the
    primary is not hosted or has no checkpoint image."""
    location = cluster.master.gpt.locate("kv", 0)
    worker = cluster.worker(location.node_id)
    partition = worker.partitions.get(location.partition_id)
    image = worker.checkpoint_images.get(location.partition_id)
    if partition is None or image is None:
        return dict.fromkeys(("live_rows", "diverged_rows", "image_rows",
                              "analyzed_records", "start_lsn", "redo_lsn",
                              "next_lsn"))

    expected = {version.key: tuple(version.values)
                for version in iter_committed_rows(partition)}
    scratch = cluster.catalog.new_partition("kv", worker.node_id)
    report = recovery.recover_worker_table(worker.wal, scratch, "kv",
                                           image=image)
    rebuilt: dict = {}
    for segment in scratch.segments.values():
        for _page, _slot, version in segment.scan_versions():
            if version.deleted_ts is None:
                rebuilt[version.key] = tuple(version.values)
    # Replay must start at the last checkpoint's redo point — i.e. be
    # bounded by the checkpoint interval, not by run length.
    return {
        "live_rows": len(expected),
        "diverged_rows": sum(rebuilt.get(key) != expected.get(key)
                             for key in expected.keys() | rebuilt.keys()),
        "image_rows": report.image_rows,
        "analyzed_records": report.analyzed_records,
        "start_lsn": report.start_lsn,
        "redo_lsn": worker.wal.last_checkpoint_redo_lsn,
        "next_lsn": worker.wal._next_lsn,
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
