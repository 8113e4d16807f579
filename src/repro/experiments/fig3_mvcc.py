"""Fig. 3 — "MVCC vs MGL-RX: performance and storage space consumption
of workloads with different amount of updates while moving records".

"We have compared the performance of MGL-RX with MVCC, while moving 50%
of the records to another partition ...  The experiment shows that MVCC
can increase transaction throughput between 15% (for read-only
workloads) and almost 90% (for pure writer workloads), while the
affected partition is moved.  Storage requirements for MVCC are
obviously higher, as multiple versions of records have to be kept."
(Sect. 3.5)

X-axis: percentage of update transactions.  Bars: transactions per
minute under each CC scheme.  Lines: storage space relative to the
pre-move baseline (peak during the move).
"""

from __future__ import annotations

import dataclasses
import random

from repro.core import LogicalPartitioning
from repro.cluster.cluster import Cluster
from repro.errors import TransientError
from repro.experiments import harness
from repro.hardware.disk import HDD_SPEC
from repro.sim.engine import Environment
from repro.storage.record import Column, Schema
from repro.workload.tpcc_gen import fast_insert

#: Mover pacing: models the paper's long-running reorganisation of a
#: far larger database (see LogicalPartitioning.pace_delay).
MOVE_PACE_DELAY = 3.0


@dataclasses.dataclass
class Fig3Config:
    """I/O-heavy sizing: blob rows on HDDs with a small buffer pool, so
    the mover's lock spans real disk time (the paper's regime — their
    partition move took minutes on spinning disks)."""

    rows: int = 2000
    payload_bytes: int = 8 * 1024
    #: The table is range-partitioned; the mover relocates the upper
    #: half of the partitions one at a time, so under MGL only one
    #: partition's writers are blocked at any moment.
    partitions: int = 8
    clients: int = 12
    client_interval: float = 0.05
    update_ratios: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    lock_timeout: float = 2.0
    page_bytes: int = 16 * 1024
    segment_max_pages: int = 64
    buffer_pages: int = 256
    seed: int = 11
    vacuum_interval: float = 6.0
    #: Cap on one cell's duration if the move drags (simulated seconds).
    max_window: float = 600.0

    def schema(self) -> Schema:
        return Schema(
            [Column("id"), Column("val", "blob", width=self.payload_bytes)],
            key=("id",),
        )


#: The two concurrency-control schemes, in the order they run.
CCS = ("mvcc", "locking")
#: What a cell measures: transactions per minute, peak storage as % of
#: the pre-move table, and the move's seconds.
MEASURES = ("tpm", "storage_pct", "move_seconds")


def _gain(counters: dict, updates: str) -> float:
    """MVCC throughput gain over locking at one update share."""
    return counters["tpm mvcc"][updates] / counters["tpm locking"][updates] - 1


def shape(result: harness.Result) -> list[str]:
    """MVCC never loses; its gain and its storage grow with the
    update share (compared at the lowest and the highest ratio)."""
    counters = result.counters
    shares = list(counters["tpm mvcc"])
    return harness.shape_violations("Fig. 3", {
        "gain": lambda updates: _gain(counters, updates),
        "storage_pct": {cc: counters[f"storage_pct {cc}"] for cc in CCS},
        "reads": shares[0], "writes": shares[-1],
    }, ["gain(reads) >= -0.05", "gain(writes) >= 0.30",
        "gain(writes) > gain(reads)",
        "storage_pct['mvcc'][writes] > storage_pct['mvcc'][reads]",
        "storage_pct['mvcc'][writes] > "
        "storage_pct['locking'][writes] - 2.0"])


def quick_fig3_config() -> Fig3Config:
    """Reduced parameters for fast runs (CLI --quick, tier-1 shapes)."""
    return Fig3Config(rows=1200, clients=10, update_ratios=(0.0, 0.5, 1.0),
                      max_window=400.0)


def _build(config: Fig3Config):
    from repro.index.partition_tree import KeyRange

    env = Environment()
    cluster = Cluster(
        env, node_count=3, initially_active=2,
        disk_specs=(HDD_SPEC, HDD_SPEC),
        buffer_pages_per_node=config.buffer_pages,
        segment_max_pages=config.segment_max_pages,
        page_bytes=config.page_bytes,
        lock_timeout=config.lock_timeout,
    )
    owner = cluster.workers[0]
    per_part = config.rows // config.partitions
    assignments = []
    for i in range(config.partitions):
        low = None if i == 0 else i * per_part
        high = None if i == config.partitions - 1 else (i + 1) * per_part
        assignments.append((KeyRange(low, high), owner))
    partitions = cluster.master.create_partitioned_table(
        "acct", config.schema(), assignments
    )
    for i in range(config.rows):
        index = min(i // per_part, config.partitions - 1)
        fast_insert(owner, partitions[index], (i, ""))
    return env, cluster, partitions


def _table_bytes(cluster) -> int:
    total = 0
    for worker in cluster.workers:
        for partition in worker.partitions_for_table("acct"):
            total += partition.used_bytes
    return total


def _run_cell(config: Fig3Config, cc: str, update_ratio: float):
    env, cluster, partitions = _build(config)
    rng = random.Random(config.seed)
    master = cluster.master
    baseline_bytes = _table_bytes(cluster)
    peak_bytes = [baseline_bytes]
    completed = [0]
    move_done = env.event()

    def client():
        while not move_done.triggered:
            txn = cluster.txns.begin(cc=cc)
            key = rng.randrange(config.rows)
            try:
                if rng.random() < update_ratio:
                    row = yield from master.read("acct", key, txn)
                    if row is not None:
                        yield from master.update("acct", key, (key, ""), txn)
                else:
                    yield from master.read("acct", key, txn)
                yield from cluster.txns.commit(txn)
                completed[0] += 1
            except TransientError:
                cluster.txns.abort_if_active(txn)
                yield env.timeout(0.005)
            yield env.timeout(config.client_interval)

    def storage_sampler():
        while not move_done.triggered:
            peak_bytes[0] = max(peak_bytes[0], _table_bytes(cluster))
            yield env.timeout(1.0)

    def mover():
        """Relocate the upper half of the partitions, one at a time —
        '50% of the records moved to another partition'."""
        scheme = LogicalPartitioning(pace_delay=MOVE_PACE_DELAY, cc=cc)
        yield from cluster.power_on(2)
        upper_half = partitions[len(partitions) // 2:]
        for partition in upper_half:
            hull = cluster.master.gpt.range_of(
                "acct", partition.partition_id
            )
            yield from scheme.move_range(
                cluster, partition, cluster.workers[0], cluster.worker(2),
                hull,
            )
        if not move_done.triggered:
            move_done.succeed()

    def watchdog():
        yield env.timeout(config.max_window)
        if not move_done.triggered:
            move_done.succeed()

    from repro.workload import start_vacuum_daemon

    start_vacuum_daemon(cluster, interval=config.vacuum_interval)
    for _ in range(config.clients):
        env.process(client())
    env.process(storage_sampler())
    env.process(mover())
    env.process(watchdog())
    start = env.now
    env.run(until=move_done)
    elapsed = env.now - start
    # Let in-flight clients wind down without advancing the metrics.
    tpm = completed[0] / elapsed * 60.0
    storage_pct = peak_bytes[0] / baseline_bytes * 100.0
    return tpm, storage_pct, elapsed


def run_fig3(config: Fig3Config | None = None) -> harness.Result:
    """Every (scheme, update ratio) cell: each measure per scheme, keyed
    by the share of update transactions."""
    config = config or Fig3Config()
    counters = {f"{measure} {cc}": {} for measure in MEASURES for cc in CCS}
    for cc in CCS:
        for ratio in config.update_ratios:
            for measure, value in zip(MEASURES, _run_cell(config, cc, ratio)):
                counters[f"{measure} {cc}"][f"{ratio:.0%}"] = value
    counters["mvcc gain"] = {updates: _gain(counters, updates)
                             for updates in counters["tpm mvcc"]}
    result = harness.Result(
        "Fig. 3 — MVCC vs MGL-RX (locking) while moving 50% of records, "
        "by share of update transactions", counters, [], [])
    result.violations = shape(result)
    return result
