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

Invariants asserted (the result's ``violations``):

1. the run offered at least ``min_requests`` logical requests and
   admission conservation held (offered = admitted + rejected + shed;
   admitted = completed + abandoned);
2. replica mode actually exercised the tier: replica reads, cache
   hits, and view reads all nonzero, and the cache ledger conserved;
3. every quiesced view checkpoint matched a from-scratch recompute
   bit for bit (at least one checkpoint must have been taken);
4. zero anomalies when ``--audit`` is on — including the read-tier
   checkers: staleness bounds, cache coherence, view equivalence;
5. across modes (:func:`compare`): replica mode completed
   more read requests per joule than the primary baseline.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments import harness

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

    # Cluster — the open-loop disk-bound regime (harness.open_loop):
    # the baseline must pay seeks for its reads or there is nothing to
    # scale away from.
    load_segment_max_pages: int = 8

    duration: float = 240.0

    # Fault schedule (fractions of ``duration``): the sever and the
    # crash are spaced so each promotion completes before the next
    # fault.
    sever_at_fraction: float = 0.25
    restore_at_fraction: float = 0.40
    crash_at_fraction: float = 0.55
    restart_at_fraction: float = 0.80

    power_sample_interval: float = 5.0

    audit: bool = False
    #: Acceptance gate on offered logical requests.
    min_requests: int = 40_000


#: The record perfledger/ reads (``offered``, ``completed``, ``ok``,
#: ``view_checkpoints_matched``).
ReadScalingResult = harness.OpenLoopResult

#: Replica mode's gates: the tier carried traffic on every path, the
#: cache ledger balanced, and every quiesced view checkpoint matched a
#: from-scratch recompute.
TIER_CLAIMS = [
    "replica_reads > 0", "cache_hits > 0", "cache_ledger_conserved == True",
    "view_reads_order_status + view_reads_stock_level > 0",
    "view_checkpoints > 0", "view_checkpoints_matched == view_checkpoints",
]


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

def run_read_scaling(config: ReadScalingConfig | None = None
                     ) -> ReadScalingResult:
    """One seeded mode of the comparison."""
    from repro.ha.failover import FailoverCoordinator, FailureDetector
    from repro.ha.faults import FaultInjector
    from repro.ha.replication import ReplicationManager
    from repro.ha.scrub import ScrubDaemon, ScrubPolicy
    from repro.storage.checksum import IntegrityError

    # Registers the ``*_view`` transaction bodies for both modes: with
    # no read tier installed they fall back to the primary read path,
    # which is exactly the baseline being measured.
    from repro.reads import router, views

    config = config or ReadScalingConfig()
    # Both modes spread the data across every (always-on) node: the
    # comparison isolates the read path, not placement.  Five logical
    # requests ride one executed transaction.
    run = harness.open_loop(config, _tenants(config), owners=None,
                            active=harness.OPEN_LOOP_NODES,
                            vacuum_interval=30.0, batch=5, executors=10,
                            queue_limit=20_000)
    env, cluster, recorder = run.env, run.cluster, run.recorder
    if recorder is not None:
        recorder.staleness_budget = float(router.LAG_BUDGET)
        recorder.view_lag_bound = views.LAG_BOUND

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

        tier = ReadTier(cluster, replication, cache_seed=config.seed,
                        per_tenant_quota=2_048)
        env.process(tier.views.run(), name="view-refresh")

    d = config.duration
    injector = FaultInjector(cluster)
    injector.crash_at(d * config.crash_at_fraction, CRASH_NODE)
    injector.restart_at(d * config.restart_at_fraction, CRASH_NODE)
    injector.bit_rot_at(d * BIT_ROT_AT_FRACTION, BIT_ROT_NODE)
    injector.sever_link_at(d * config.sever_at_fraction, SEVER_NODE)
    injector.restore_link_at(d * config.restore_at_fraction, SEVER_NODE)
    env.process(injector.run(), name="fault-injector")

    checkpoint_matches: list[bool] = []

    def try_view_checkpoint(label: str) -> None:
        # A view checkpoint is only meaningful when no writer is
        # mid-commit: commit timestamps are stamped at commit entry, so
        # a recompute taken mid-commit would see rows the maintenance
        # queue has not been fed yet.  The recompute scans pages, so it
        # can trip over injected corruption the scrubber has not
        # repaired yet.  That is detection working, not divergence:
        # skip the attempt and let a post-repair checkpoint do the
        # proving.
        if tier is None or cluster.txns._committing:
            return
        try:
            checkpoint_matches.append(
                tier.views.checkpoint(label, env.now, recorder))
        except IntegrityError:
            pass

    counters, violations = harness.drive_open_loop(
        run, config, config.duration,
        lambda now, _watts: try_view_checkpoint(f"meter-{now:.0f}"),
        "read-scaling")
    scrub.stop()
    cluster.meter.sample()
    try_view_checkpoint("final")

    reads = sum(int(row.get("read_requests") or 0)
                for row in counters["tenants"].values())
    energy = cluster.energy_joules()
    counters = {"run": {
        "seed": config.seed, "mode": config.mode,
        # Completed declared-read-only logical requests: the numerator
        # of the throughput-per-watt comparison.
        "reads_completed": reads, "energy_joules": energy,
        "reads_per_kilojoule": 1000.0 * reads / max(energy, 1e-9),
        "sim_seconds": env.now,
        "view_checkpoints": len(checkpoint_matches),
        "view_checkpoints_matched": sum(checkpoint_matches),
    }, **counters}
    if tier is not None:
        counters["run"].update(
            replica_reads=tier.replica_reads_total,
            cache_ledger_conserved=tier.cache.ledger_conserved())
        counters["read tier"] = tier.stats()
        violations += harness.shape_violations(
            "read-scaling", {**counters["read tier"], **counters["run"]},
            TIER_CLAIMS)
    violations += harness.audit_violations(recorder, cluster, "end",
                                           counters)
    return ReadScalingResult(
        f"read-scaling [{config.mode}] — seed {config.seed}, "
        f"{counters['admission']['offered']} requests offered, "
        f"{energy / 1000:.1f} kJ, "
        f"{counters['run']['reads_per_kilojoule']:.1f} reads/kJ",
        counters, list(cluster.timeline), violations)


def compare(runs: typing.Sequence[ReadScalingResult]) -> harness.Result:
    """The cross-mode gate: replica mode must complete more reads per
    joule than the primary baseline under the same seed and faults."""
    modes = harness.by_run_key(runs, "mode")
    replica, primary = modes["replica"], modes["primary"]
    return harness.Result(
        f"read throughput per watt: replica "
        f"{replica.reads_per_kilojoule:.1f} reads/kJ vs primary "
        f"{primary.reads_per_kilojoule:.1f} reads/kJ — "
        f"{replica.reads_per_kilojoule / primary.reads_per_kilojoule:.2f}x "
        "from the read tier", {}, [],
        harness.shape_violations(
            f"read-scaling (seed {replica.seed})", modes,
            ["replica.reads_per_kilojoule > primary.reads_per_kilojoule"]))


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
