"""Chaos harness — seeded fault schedules against the journaled mover.

A fig6-style repartitioning (physiological scheme, 50% of a loaded
table from one data node to a newcomer) runs under concurrent writers
while a seeded schedule of transient faults — node crashes with later
restarts, severed links with later restores — hits the two data nodes.
The master (node 0) is never injured: the paper's coordinator is a
fixed single point, and the move journal lives in its WAL.

After the schedule drains, the run *quiesces*: every link is restored,
every crashed node rebooted, the interrupted migration re-driven from
the move journal.  Then the harness asserts the invariants the
crash-safe mover promises, whatever the schedule did:

* the move journal is empty — every move completed or rolled back;
* the global partition table holds no dual pointers and every
  partition is available on a node that actually has it;
* every hosted extent is registered in the segment directory at
  exactly one (node, disk), and none is orphaned (unowned by any
  partition);
* every *acknowledged* write is still readable with the value the
  client saw committed (no lost commits, no zombie segments).

Runs are deterministic: the same seed yields the same fault schedule,
the same writer interleaving, and the same metrics.  A suite over many
seeds is the acceptance gate for the mover — zero invariant violations,
and at least one schedule must complete a move through a *chunk-level
resume* (observable as ``bytes_reshipped`` > 0 on a DONE move that
shipped less than twice its payload).
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.cluster.cluster import Cluster
from repro.core import PhysiologicalPartitioning, Rebalancer
from repro.experiments import harness
from repro.ha import FaultInjector
from repro.hardware.disk import DiskSpec
from repro.hardware.power import PowerState
from repro.moves import RetryPolicy
from repro.sim.engine import Environment
from repro.sim.events import AllOf

#: Data disks are deliberately slow so the repartitioning spans the
#: whole fault window (the paper's regime: "the main bottleneck for
#: repartitioning seems to be the bandwidth to the storage
#: subsystem"); the log disk stays fast so commits are not the
#: bottleneck.
DATA_DISK_BANDWIDTH = 4 * 1024
DISK_CAPACITY_BYTES = 4 * 1024 * 1024

# Mover knobs, scaled to the tiny segments: short backoff so schedules
# with long outages exhaust retries and exercise rollback/resume.
MOVE_TIMEOUT = 120.0
#: 4 chunks per (tiny) extent so a chunk-level resume is observable.
CHUNK_BYTES = 2048
MOVER_RETRY = RetryPolicy(max_attempts=8, base_delay=0.25, multiplier=2.0,
                          max_delay=8.0, jitter=0.5)

# Outage pairs (crash->restart / sever->restore) last this long.
OUTAGE_MIN = 0.5
OUTAGE_MAX = 8.0
FAULT_KINDS = ("crash", "sever_link")

#: Post-quiesce journal re-drive rounds before declaring failure.
RESUME_ROUNDS = 5
#: Simulated seconds between partition-table coverage snapshots while
#: auditing — small enough that a mid-move dual-pointer state is always
#: observed.
AUDIT_CHECKPOINT_INTERVAL = 0.5
#: The data nodes: the repartitioning moves half the table from the
#: source to the target, and only they are injured.
SOURCE_NODE = 1
TARGET_NODE = 2
#: A restarted node serves again this long after its restart.
BOOT_SECONDS = 5.0
#: Pages per segment: small, so the loaded rows fill a dozen segments.
SEGMENT_MAX_PAGES = 8
#: The migration starts, and faults may land, this long into the run.
WARMUP = 5.0
#: A writer updates a loaded row this often, else inserts a fresh key.
UPDATE_SHARE = 0.5


@dataclasses.dataclass
class ChaosConfig:
    """One chaos run: load, schedule shape, writers."""

    seed: int = 0
    rows: int = 1200

    #: Faults land in [WARMUP, WARMUP + fault_span] — sized so the
    #: slow-disk migration is still in flight for most of it.
    fault_span: float = 45.0
    #: Writers keep going this long past the fault window.
    tail: float = 10.0

    #: Outage pairs in the schedule, never overlapping on one node so
    #: every fault is applicable.
    fault_pairs: int = 4

    # Writers.
    writers: int = 3
    writer_interval: float = 0.4

    #: Record the full operation history and run the isolation checkers
    #: (repro.audit) after the invariants.  Off by default: the
    #: determinism goldens fingerprint audit-off runs, and the audit's
    #: coverage-checkpoint process adds events of its own.
    audit: bool = False

    @property
    def duration(self) -> float:
        return WARMUP + self.fault_span + self.tail


# -- schedule ---------------------------------------------------------------

def build_schedule(config: ChaosConfig, rng: random.Random
                   ) -> list[tuple[float, str, int]]:
    """Seeded outage pairs: each fault gets its recovery, and outages
    on one node never overlap (a crash while crashed is unappliable).
    Returns ``(at, kind, node_id)`` tuples in creation order."""
    recover = {"crash": "restart", "sever_link": "restore_link"}
    nodes = (SOURCE_NODE, TARGET_NODE)
    # A restart only completes after the boot delay; keep the node
    # clear until then so the next fault always finds it applicable.
    busy_until = {n: 0.0 for n in nodes}
    events: list[tuple[float, str, int]] = []
    hi = WARMUP + config.fault_span
    for _ in range(config.fault_pairs):
        at = rng.uniform(WARMUP, hi)
        node = rng.choice(nodes)
        kind = rng.choice(FAULT_KINDS)
        at = max(at, busy_until[node])
        if at >= hi:
            continue
        outage = rng.uniform(OUTAGE_MIN, OUTAGE_MAX)
        events.append((at, kind, node))
        events.append((at + outage, recover[kind], node))
        busy_until[node] = at + outage + BOOT_SECONDS + 1.0
    return events


# -- the run ----------------------------------------------------------------

def _disk_specs() -> tuple[DiskSpec, DiskSpec]:
    """A fast log disk (kind "hdd" so the worker assigns it the WAL
    role) plus one slow data disk that paces the migration."""
    log = DiskSpec(
        kind="hdd", access_seconds=0.0001,
        bandwidth_bytes_per_s=100 * 1024 * 1024,
        capacity_bytes=DISK_CAPACITY_BYTES,
        idle_watts=0.3, active_watts=0.4,
    )
    data = DiskSpec(
        kind="ssd", access_seconds=0.0001,
        bandwidth_bytes_per_s=DATA_DISK_BANDWIDTH,
        capacity_bytes=DISK_CAPACITY_BYTES,
        idle_watts=0.3, active_watts=0.4,
    )
    return (log, data)


def _build(config: ChaosConfig) -> tuple[Environment, Cluster]:
    env = Environment(seed=config.seed)
    # Master 0 (never injured), source 1, target 2.
    cluster = Cluster(
        env, node_count=3, initially_active=3,
        disk_specs=_disk_specs(),
        buffer_pages_per_node=512,
        segment_max_pages=SEGMENT_MAX_PAGES,
        page_bytes=1024,
        boot_seconds=BOOT_SECONDS,
        lock_timeout=harness.LOCK_TIMEOUT,
    )
    cluster.moves.chunk_bytes = CHUNK_BYTES
    cluster.moves.move_timeout = MOVE_TIMEOUT
    cluster.moves.retry = MOVER_RETRY
    harness.kv_cluster_rows(cluster, SOURCE_NODE, config.rows)
    return env, cluster


def check_invariants(env: Environment, cluster: Cluster,
                     oracle: dict[int, str]) -> list[str]:
    """Post-quiesce assertions; returns human-readable violations."""
    violations: list[str] = []
    journal = cluster.moves.journal

    # 1. Every move completed or was resolved — nothing half-done.
    for entry in journal.open_segment_moves():
        violations.append(
            f"segment move {entry.move_id} still open in {entry.phase}"
        )
    for entry in journal.open_range_moves():
        violations.append(
            f"range move {entry.move_id} still open in {entry.phase}"
        )

    # 2. The global partition table: no dual pointers left behind, and
    # every partition lives where the table says it does.
    gpt = cluster.master.gpt
    for table in gpt.tables():
        for key_range, location in gpt.partitions(table):
            if location.is_moving:
                violations.append(
                    f"{table} partition {location.partition_id} still "
                    f"dual-pointed at node {location.moving_to_node_id}"
                )
            if not location.available:
                violations.append(
                    f"{table} partition {location.partition_id} "
                    f"unavailable"
                )
            worker = cluster.worker(location.node_id)
            if location.partition_id not in worker.partitions:
                violations.append(
                    f"{table} partition {location.partition_id} mapped "
                    f"to node {location.node_id}, which does not have it"
                )

    # 3. Storage: each hosted extent registered at exactly one
    # (node, disk), and owned by some partition (no orphans).
    owned = {
        seg_id
        for worker in cluster.workers
        for partition in worker.partitions.values()
        for seg_id in partition.segments
    }
    hosts: dict[int, list[int]] = {}
    for worker in cluster.workers:
        for seg_id, disk in worker.disk_space.placements():
            hosts.setdefault(seg_id, []).append(worker.node_id)
            try:
                dir_worker, dir_disk = cluster.directory.location(seg_id)
            except KeyError:
                violations.append(
                    f"segment {seg_id} placed on node {worker.node_id} "
                    f"but absent from the directory"
                )
                continue
            if dir_worker is not worker or dir_disk is not disk:
                violations.append(
                    f"segment {seg_id}: directory says node "
                    f"{dir_worker.node_id}/{dir_disk.name}, extent is on "
                    f"node {worker.node_id}/{disk.name}"
                )
            if seg_id not in owned:
                violations.append(
                    f"segment {seg_id} on node {worker.node_id} is an "
                    f"orphan extent (no partition owns it)"
                )
    for seg_id, nodes in hosts.items():
        if len(nodes) > 1:
            violations.append(
                f"segment {seg_id} hosted on multiple nodes: {nodes}"
            )

    # 4. Durability: every acknowledged write reads back as committed.
    return violations + harness.kv_readback(env, cluster, oracle)


def run_chaos(config: ChaosConfig | None = None,
              instrument: typing.Callable[[Environment, Cluster], None]
              | None = None) -> harness.Result:
    """One seeded schedule, end to end: load, faults, quiesce, verify.

    ``instrument``, if given, is called with the freshly built
    ``(env, cluster)`` before anything runs — the determinism harness
    uses it to attach a checkpoint recorder.
    """
    config = config or ChaosConfig()
    env, cluster = _build(config)
    if instrument is not None:
        instrument(env, cluster)
    recorder = None
    if config.audit:
        from repro.audit import HistoryRecorder

        recorder = HistoryRecorder().attach(cluster)

        def coverage_loop():
            # Audited runs snapshot the partition table on a fixed
            # cadence so every mid-move dual-pointer state is captured.
            # This adds timeout events — fine, because the determinism
            # goldens fingerprint audit-off runs only.
            recorder.checkpoint_coverage(cluster.master.gpt, env.now,
                                         "chaos-start")
            while env.now < config.duration:
                yield env.timeout(AUDIT_CHECKPOINT_INTERVAL)
                recorder.checkpoint_coverage(cluster.master.gpt, env.now,
                                             "chaos")

        env.process(coverage_loop(), name="audit-coverage")
    scheme = PhysiologicalPartitioning()
    rebalancer = Rebalancer(cluster, scheme)

    # -- fault schedule (its own seeded stream, independent of the
    # simulation's RNG so timings don't perturb the schedule) ----------
    schedule_rng = random.Random(config.seed * 7919 + 17)
    schedule = build_schedule(config, schedule_rng)
    injector = FaultInjector(cluster)
    for at, kind, node_id in schedule:
        injector.at(at, kind, node_id)

    # -- concurrent writers, with an oracle of acknowledged commits ----
    writers = harness.KvWriters(cluster, config.rows, UPDATE_SHARE,
                                lambda _now: config.writer_interval,
                                config.seed)

    # -- the repartitioning step ---------------------------------------
    def migration():
        yield env.timeout(WARMUP)
        yield from rebalancer.scale_out(
            ["kv"], [SOURCE_NODE], [TARGET_NODE], fraction=0.5)

    writer_procs = [
        env.process(writers.run(i, config.duration),
                    name=f"chaos-writer-{i}")
        for i in range(config.writers)
    ]
    injector_proc = env.process(injector.run(), name="chaos-injector")
    migration_proc = env.process(migration(), name="chaos-migration")
    env.run(until=AllOf(env, writer_procs + [injector_proc]))
    env.run(until=migration_proc)

    # -- quiesce: heal everything, then re-drive the journal -----------
    def quiesce():
        for worker in cluster.workers:
            if worker.port.severed:
                worker.port.restore()
        # A node restarted less than BOOT_SECONDS ago is still booting.
        boots = [worker.machine.booted for worker in cluster.workers
                 if worker.machine.state is PowerState.BOOTING] + [
            env.process(worker.machine.power_on(),
                        name=f"quiesce-boot-{worker.node_id}")
            for worker in cluster.workers if worker.machine.is_crashed
        ]
        if boots:
            yield AllOf(env, boots)

    env.run(until=env.process(quiesce(), name="chaos-quiesce"))

    rounds_used = 0

    def resume_rounds():
        nonlocal rounds_used
        for _ in range(RESUME_ROUNDS):
            if not cluster.moves.journal.open_range_moves():
                break
            rounds_used += 1
            yield from rebalancer.resume_interrupted()
            yield env.timeout(1.0)

    env.run(until=env.process(resume_rounds(), name="chaos-resume"))

    violations = check_invariants(env, cluster, writers.oracle)
    journal = cluster.moves.journal
    counters = {
        "run": {
            "seed": config.seed,
            "faults": len(schedule),
            "acked_writes": writers.acked,
            "exhausted_writes": writers.exhausted,
            # A DONE move that resumed from a chunk checkpoint after
            # losing in-flight bytes — what the sweep's gate looks for.
            "resumed_move_completed": journal.resumed_move_completed,
            "degraded_steps": len(rebalancer.failed_moves),
            "resume_rounds_used": rounds_used,
        },
        **harness.snapshot(moves=journal),
        "retries by class": writers.retries_by_class,
    }
    # One final snapshot of the healed table, then the full audit (the
    # readback's reads are part of the history too — the checkers prove
    # even the verification pass read consistently).
    violations += harness.audit_violations(recorder, cluster, "post-quiesce",
                                           counters)
    return harness.Result(
        f"chaos — seed {config.seed}: journaled repartitioning under "
        "fault schedules", counters, list(cluster.timeline), violations)


def suite(runs: typing.Sequence[harness.Result]) -> harness.Result:
    """The sweep's gate: it means something only if the schedules
    interfered with the moves and a chunk-level resume carried one
    through."""
    moves: dict[str, int] = {}
    for run in runs:
        for key, value in run.counters["moves"].items():
            moves[key] = moves.get(key, 0) + value
    sweep = {
        "schedules": len(runs),
        "moves_done_by_chunk_resume": sum(
            run.counters["run"]["resumed_move_completed"] for run in runs),
        "max_resumes": max(run.counters["moves"]["resumes_total"]
                           for run in runs),
    }
    return harness.Result(
        f"chaos — {len(runs)} schedules", {
            "sweep": sweep, "moves (all schedules)": moves}, [],
        harness.shape_violations("chaos", {**sweep, "moves": moves}, [
            "moves_done_by_chunk_resume > 0", "moves['open_moves'] == 0",
            "moves['open_range_moves'] == 0", "moves['retries_total'] > 0",
            "max_resumes > 0"]))
