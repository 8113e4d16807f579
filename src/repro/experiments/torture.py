"""Torture — TPC-C under a seeded mix of every gray fault at once.

The fail-stop experiments (fig9, chaos) kill nodes cleanly: a crashed
node stops heartbeating and the staleness detector catches it.  Real
clusters limp before they die — disks serve I/O 10x slower, NICs drop
5% of packets, cosmic rays flip bits in cold pages, a power cut tears
the last WAL flush in half.  None of those miss a heartbeat.  This
experiment runs a TPC-C mix while the fault injector deals out all of
them simultaneously and gates on the hardening holding up end to end:

* **zero acked-commit loss** — every acknowledged NewOrder's order row
  is findable post-run through the global partition table (same oracle
  as fig9);
* **no silent corruption** — every injected corruption (the injector
  keeps a ledger) was *resolved*: repaired back to the original bytes,
  fenced behind an unavailable partition, marked stale, or discarded
  as a torn WAL tail.  A corrupt row still readable through the GPT,
  or a torn transaction that became committed, fails the run;
* **gray detection beats the SLO** — the latency-outlier detector
  flags the limping node (``suspect``) no later than the end of the
  first workload bucket whose p99 breaches the SLO;
* **determinism** — the same seed reproduces the same counters
  (committed counts, corruption ledger, detector and scrub stats),
  checked by the CLI's rerun and the smoke tests.

With ``audit=True`` the full operation history is recorded and the
isolation checkers (:mod:`repro.audit`) run post-hoc — a garbled value
that leaked into a committed read would surface there as an anomaly
even if every other gate passed.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing

from repro.cluster.cluster import Cluster
from repro.cluster.monitor import GrayFailureDetector
from repro.experiments import harness
from repro.ha import FaultInjector, ScrubDaemon, ScrubPolicy
from repro.index.partition_tree import Forwarding
from repro.metrics.series import percentile
from repro.storage.checksum import IntegrityError
from repro.workload import TpccConfig, start_vacuum_daemon


SCRUB_INTERVAL = 5.0
SCRUB_PAGES_PER_TICK = 256
#: The limping node's disk serves I/O this many times slower.
SLOW_FACTOR = 12.0
#: The flaky node's NIC: packet loss probability and added delay.
FLAKY_LOSS = 0.05
FLAKY_EXTRA_DELAY = 0.005
#: The data nodes (all distinct, none the master) and their roles: the
#: *torn* node takes the torn write plus the crash it implies, the
#: *flaky* node gets the lossy NIC, the *limping* node the slow disk.
#: Bit rot lands on seeded choices of them at seeded times.
DATA_NODES = (1, 2, 3)
TORN_NODE, FLAKY_NODE, LIMPING_NODE = DATA_NODES
#: The run's latency SLO: a bucket whose p99 exceeds this counts as a
#: breach (observed at the bucket's *end* — percentiles are only known
#: once the bucket closes).
SLO_P99_MS = 900.0
#: Replication factor — needs k >= 2 for repair sources.
REPLICATION_K = 2


@dataclasses.dataclass
class TortureConfig:
    """Gray-failure torture parameters (node roles: :data:`DATA_NODES`)."""

    tpcc: TpccConfig = harness.HA_TPCC
    clients: int = 8
    client_interval: float = 0.3

    node_count: int = 6
    segment_max_pages: int = 8

    # Gray-failure detection.
    score_threshold: float = 3.0
    clear_threshold: float = 1.5

    # Fault schedule, relative to workload start (after seeding).
    slow_disk_at: float = 20.0
    flaky_at: float = 10.0
    flaky_heal_after: float = 25.0
    torn_at: float = 40.0
    torn_restart_after: float = 12.0
    bit_rots: int = 4
    bit_rot_window: tuple[float, float] = (12.0, 70.0)

    duration: float = 100.0
    seed: int = 0
    audit: bool = False


#: The run's gates over ``counters["run"]``: no acknowledged NewOrder
#: lost, every injected corruption resolved, no torn transaction
#: committed, and the limping node flagged no later than the first SLO
#: breach (``inf``: none).
CLAIMS = ["lost_commits == 0", "unresolved_corruptions == 0",
          "torn_txns_committed == 0",
          "limping_flagged_after <= slo_breached_after"]


def _schedule_faults(injector: FaultInjector, config: TortureConfig,
                     t_start: float) -> None:
    """Install the full gray-fault mix."""
    injector.slow_disk_at(t_start + config.slow_disk_at, LIMPING_NODE,
                          factor=SLOW_FACTOR)
    injector.flaky_link_at(t_start + config.flaky_at, FLAKY_NODE,
                           loss_probability=FLAKY_LOSS,
                           extra_delay=FLAKY_EXTRA_DELAY)
    injector.heal_link_at(
        t_start + config.flaky_at + config.flaky_heal_after, FLAKY_NODE
    )
    injector.torn_write_at(t_start + config.torn_at, TORN_NODE)
    injector.restart_at(
        t_start + config.torn_at + config.torn_restart_after, TORN_NODE
    )
    # Bit rot at seeded times on seeded data nodes — derived from the
    # experiment seed, independent of the simulation RNG, so the
    # schedule itself is part of the reproducible configuration.
    rng = random.Random(config.seed * 104729 + 13)
    lo, hi = config.bit_rot_window
    for _ in range(config.bit_rots):
        at = t_start + rng.uniform(lo, min(hi, config.duration - 5.0))
        injector.bit_rot_at(at, rng.choice(list(DATA_NODES)))


def _torn_txns_committed(cluster: Cluster, injector: FaultInjector) -> int:
    """How many torn-write transactions (whose commit record was
    garbled mid-flush) nonetheless show up as committed rows — must be
    zero: a torn commit was never acknowledged."""
    torn_ids = {
        c.txn_id for c in injector.corruptions
        if c.target == "wal-tail" and c.txn_id is not None
    }
    if not torn_ids:
        return 0
    hits = 0
    for worker in cluster.workers:
        for partition in worker.partitions.values():
            for segment in partition.segments.values():
                for _p, _s, version in segment.scan_versions():
                    if version.created_by in torn_ids \
                            and version.created_ts is not None:
                        hits += 1
    return hits


def _unresolved_corruptions(cluster: Cluster,
                            injector: FaultInjector) -> list[str]:
    """Cross-check the injector's corruption ledger against the final
    cluster state: corrupt bytes still *reachable* (through the GPT or
    a live replica) are integrity failures."""
    problems: list[str] = []
    for c in injector.corruptions:
        if c.target == "page":
            try:
                location = cluster.master.gpt.locate(c.table, c.key)
            except KeyError:
                continue  # partition gone entirely — unreachable
            if not location.available:
                continue  # fenced: readers fail fast, never see garbage
            worker = cluster.worker(location.node_id)
            if not worker.is_serving:
                continue
            partition = worker.partitions.get(location.partition_id)
            if partition is None:
                continue
            segment = partition.segment_for(c.key)
            if segment is None or isinstance(segment, Forwarding):
                continue
            for _p, _s, version in segment.versions_for(c.key):
                if version.deleted_ts is not None:
                    continue
                try:
                    version.verify(where="torture-check")
                except IntegrityError:
                    problems.append(
                        f"bit_rot@{c.at:.1f}: row {c.table}{c.key!r} still "
                        f"corrupt and readable on node {location.node_id}"
                    )
                    break
        elif c.target == "replica-log":
            replica_set = cluster.catalog.replica_set_for(c.partition_id)
            if replica_set is None:
                continue
            for replica in replica_set.replicas:
                if replica.stale:
                    continue
                try:
                    replica.log.verify_all(where="torture-check")
                except IntegrityError:
                    problems.append(
                        f"bit_rot@{c.at:.1f}: replica log of partition "
                        f"{c.partition_id} on node "
                        f"{replica.holder_node_id} corrupt but not stale"
                    )
        elif c.target == "wal-tail":
            worker = cluster.worker(c.node_id)
            if not worker.is_serving:
                continue  # never restarted: nothing can read that WAL
            try:
                worker.wal.verify_all(where="torture-check")
            except IntegrityError:
                problems.append(
                    f"torn_write@{c.at:.1f}: torn record still in "
                    f"node {c.node_id}'s WAL after restart"
                )
    return problems


def run_torture(config: TortureConfig | None = None) -> harness.Result:
    """One seeded torture run."""
    config = config or TortureConfig()
    ha = harness.ha_tpcc(config, REPLICATION_K, DATA_NODES)
    env, cluster = ha.env, ha.cluster
    gray = GrayFailureDetector(
        cluster, ha.coordinator,
        score_threshold=config.score_threshold,
        clear_threshold=config.clear_threshold,
        clear_polls=4,
    )
    t_end = ha.t_start + config.duration
    _schedule_faults(ha.injector, config, ha.t_start)
    scrub = ScrubDaemon(
        cluster, ha.replication, ha.coordinator,
        policy=ScrubPolicy(interval=SCRUB_INTERVAL,
                           pages_per_tick=SCRUB_PAGES_PER_TICK),
        until=t_end,
    )

    start_vacuum_daemon(cluster, interval=10.0, until=t_end)
    scrub.start()
    env.process(cluster.monitor.run(), name="monitor")
    env.process(ha.detector.run(), name="failure-detector")
    env.process(gray.run(), name="gray-detector")
    env.process(ha.injector.run(), name="fault-injector")
    env.run(until=env.process(ha.driver.run(config.duration),
                              name="workload"))

    # -- gates -------------------------------------------------------------
    unresolved = _unresolved_corruptions(cluster, ha.injector)
    slow_abs = ha.t_start + config.slow_disk_at
    flagged = next((e.time for e in cluster.timeline
                    if e.source == "gray" and e.kind == "suspect"
                    and e.node_id == LIMPING_NODE), None)
    # Seconds after the slow-disk onset at which a bucket's p99 first
    # breached the SLO.
    breach_after = math.inf
    start = ha.t_start
    while start < t_end:
        bucket_end = start + harness.HA_BUCKET
        values = ha.driver.response_times.between(start, bucket_end)
        if values and bucket_end > slow_abs \
                and percentile(values, 99.0) > SLO_P99_MS:
            breach_after = bucket_end - slow_abs
            break
        start = bucket_end
    latencies = ha.driver.response_times.between(ha.t_start, t_end)

    counters, violations = harness.ha_counters(ha, {
        "seed": config.seed,
        "corruptions_injected": len(ha.injector.corruptions),
        "unresolved_corruptions": len(unresolved),
        "torn_txns_committed": _torn_txns_committed(cluster, ha.injector),
        "limping_flagged_after": (None if flagged is None
                                  else flagged - slow_abs),
        "slo_breached_after": breach_after,
        "p99_ms": percentile(latencies, 99.0) if latencies else 0.0,
        "mean_qps": ha.driver.total_completed / config.duration,
        "conflicts": ha.driver.conflicts,
        "integrity_errors_surfaced": ha.replication.integrity_failures
        + ha.coordinator.integrity_fallbacks + scrub.corruptions_found,
        "fenced_partitions": ha.coordinator.fenced,
        "torn_discarded": ha.coordinator.torn_discarded,
    })
    counters.update(harness.snapshot(scrub=scrub, gray=gray))
    return harness.Result(
        f"torture — seed {config.seed}: TPC-C under bit rot, torn writes, "
        "slow disks, flaky links",
        counters, list(cluster.timeline),
        unresolved + harness.shape_violations("torture", counters["run"],
                                              CLAIMS) + violations,
    )


def rerun_gate(config: TortureConfig,
               runs: typing.Sequence[harness.Result]) -> harness.Result:
    """Determinism gate: rerun the first seed and demand identical
    counters."""
    first = runs[0].counters
    seed = first["run"]["seed"]
    again = run_torture(dataclasses.replace(config, seed=seed)).counters
    differing = sorted(name for name in first.keys() | again.keys()
                       if first.get(name) != again.get(name))
    rerun = {"seed": seed, "differing_counter_groups": len(differing)}
    return harness.Result(
        f"torture — determinism: seed {seed} rerun "
        + (f"DIVERGES in {', '.join(differing)}" if differing else "MATCHES"),
        {"rerun": rerun}, [],
        harness.shape_violations("torture", rerun,
                                 ["differing_counter_groups == 0"]))


def quick_torture_config() -> TortureConfig:
    """Reduced parameters for fast runs (CI smoke, CLI --quick)."""
    return TortureConfig(
        tpcc=TpccConfig(
            warehouses=4, districts_per_warehouse=3,
            customers_per_district=15, items=100,
            orders_per_district=6, order_lines_per_order=5,
        ),
        clients=5, client_interval=0.4, node_count=5,
        slow_disk_at=15.0, flaky_at=8.0, flaky_heal_after=20.0,
        torn_at=30.0, torn_restart_after=10.0,
        bit_rots=3, bit_rot_window=(10.0, 50.0),
        duration=70.0,
    )


def full_torture_config() -> TortureConfig:
    """The long mix: more rot, a second torture hour is overkill for a
    simulation — 160 s already covers every fault plus full recovery."""
    return TortureConfig(bit_rots=6, bit_rot_window=(12.0, 120.0),
                         duration=160.0)
