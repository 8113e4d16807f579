"""Offline isolation checkers over a recorded operation history.

Given the history a :class:`repro.audit.history.HistoryRecorder`
collected, these checkers prove (or disprove) that the run upheld the
transactional semantics the paper's repartitioning protocol promises
to preserve (Sect. 3.5, 4.3):

* **Adya-style anomaly detection** over the write/read dependency
  structure: G0 (write cycles), G1a (aborted reads), G1b (intermediate
  reads), and lost updates — the anomaly taxonomy used to validate
  repartitioned OLTP executions in the hyper-graph partitioning line
  of work.
* **Snapshot-isolation read consistency**: every read must return the
  newest version committed at or before the reader's snapshot — a
  fractured read during a segment move (old node already forwarded,
  new node not yet caught up) surfaces here as a stale or future read.
* **Replica convergence**: after failover, every in-sync replica log
  must replay to exactly the primary's committed contents.
* **Cost conservation**: an acknowledged request's ``other`` bucket,
  the rest of its response after the named ones, is not negative — a
  stall charged twice makes it so.
* **Partition-table coverage**: at every checkpoint — including
  mid-move, when dual pointers exist — each table's key ranges must
  tile its keyspace with no gaps and no overlaps, every location must
  be routable (non-empty candidate set).

All checkers are pure functions over the history: they run post-hoc,
never touch the simulation clock, and tolerate *bootstrap* versions
(rows loaded outside any recorded transaction) by treating unknown
writers as initial state.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.audit.history import (
    ABORT,
    ACK,
    BEGIN,
    COMMIT,
    READ,
    WRITE,
    CoverageCheckpoint,
    HistoryRecorder,
    Op,
    ViewCheckpoint,
)
from repro.txn.checkpoint import iter_committed_rows

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster


@dataclasses.dataclass
class Anomaly:
    """One detected isolation violation."""

    kind: str            # G0 | G1a | G1b | lost-update | si-stale-read |
                         # si-future-read | si-missed-read | replica-divergence |
                         # coverage-gap | coverage-overlap | coverage-unroutable |
                         # double-charge
    description: str
    table: str | None = None
    key: typing.Any = None
    txns: tuple[int, ...] = ()


class History:
    """An indexed view over a sequence of :class:`Op` records."""

    def __init__(self, ops: typing.Iterable[Op]):
        self.ops = list(ops)
        self.begin_ts: dict[int, int] = {}
        self.commit_ts: dict[int, int] = {}
        #: Wall-clock (simulated) instant each commit *finished* — when
        #: its synchronous side effects (replica shipping, cache
        #: write-through, view feeding) were all done.  The coherence
        #: checker needs completion times, not just commit stamps.
        self.commit_done: dict[int, float] = {}
        self.aborted: set[int] = set()
        self.reads: list[Op] = []
        self.writes: list[Op] = []
        for op in self.ops:
            if op.kind == BEGIN:
                self.begin_ts[op.txn_id] = op.ts
            elif op.kind == COMMIT:
                self.commit_ts[op.txn_id] = op.ts
                self.commit_done[op.txn_id] = op.t1
            elif op.kind == ABORT:
                self.aborted.add(op.txn_id)
            elif op.kind == READ:
                self.reads.append(op)
            elif op.kind == WRITE:
                self.writes.append(op)
        #: Writes grouped by transaction, in recorded order.
        self.writes_by_txn: dict[int, list[Op]] = {}
        for op in self.writes:
            self.writes_by_txn.setdefault(op.txn_id, []).append(op)

    @classmethod
    def from_recorder(cls, recorder: HistoryRecorder) -> "History":
        return cls(recorder.ops)

    def committed(self, txn_id: int) -> bool:
        return txn_id in self.commit_ts and txn_id not in self.aborted

    # -- per-key committed timelines ---------------------------------------

    def known(self, txn_id: int | None) -> bool:
        """Did the history see this transaction's lifecycle at all?
        Bootstrap loads, REDO replay, and replica seeding write under
        pseudo transaction ids that never begin or commit on record —
        their versions act as initial state for the checkers."""
        return txn_id is not None and (
            txn_id in self.begin_ts or txn_id in self.commit_ts
            or txn_id in self.aborted
        )

    def key_timeline(self) -> dict[tuple, list[tuple[int, str, int, tuple | None]]]:
        """For every (table, key): the committed history as a sorted
        list of ``(commit_ts, 'create'|'delete', txn_id, value)``
        events.  Inserts and updates create a version; deletes
        tombstone one (value ``None``).  Only transactions whose commit
        was recorded participate."""
        timeline: dict[tuple, list[tuple[int, str, int, tuple | None]]] = {}
        for op in self.writes:
            if not self.committed(op.txn_id):
                continue
            ts = self.commit_ts[op.txn_id]
            effect = "delete" if op.subkind == "delete" else "create"
            timeline.setdefault((op.table, op.key), []).append(
                (ts, effect, op.txn_id, op.value)
            )
        for events in timeline.values():
            events.sort(key=lambda e: e[0])
        return timeline


# -- Adya-style anomaly checkers -------------------------------------------

def check_aborted_reads(history: History) -> list[Anomaly]:
    """G1a: a transaction that did not itself abort observed a version
    written by a transaction that aborted.  Under snapshot isolation an
    uncommitted version is visible only to its writer, so any such read
    is a dirty read whose source later rolled back."""
    anomalies = []
    for read in history.reads:
        writer = read.writer_txn
        if writer is None or writer == read.txn_id:
            continue
        if writer in history.aborted and read.txn_id not in history.aborted:
            anomalies.append(Anomaly(
                kind="G1a",
                table=read.table, key=read.key,
                txns=(read.txn_id, writer),
                description=(
                    f"txn {read.txn_id} read {read.value!r} written by "
                    f"txn {writer}, which aborted"
                ),
            ))
    return anomalies


def check_intermediate_reads(history: History) -> list[Anomaly]:
    """G1b: a reader observed a version that was not the writer's
    *final* write to that key — an intermediate state that should never
    have escaped the writing transaction."""
    anomalies = []
    final_value: dict[tuple[int, str, typing.Any], tuple | None] = {}
    multi_writes: set[tuple[int, str, typing.Any]] = set()
    for txn_id, writes in history.writes_by_txn.items():
        seen: dict[tuple, int] = {}
        for op in writes:
            site = (txn_id, op.table, op.key)
            seen[site] = seen.get(site, 0) + 1
            final_value[site] = None if op.subkind == "delete" else op.value
            if seen[site] > 1:
                multi_writes.add(site)
    for read in history.reads:
        writer = read.writer_txn
        if writer is None or writer == read.txn_id:
            continue
        site = (writer, read.table, read.key)
        if site in multi_writes and read.value != final_value[site]:
            anomalies.append(Anomaly(
                kind="G1b",
                table=read.table, key=read.key,
                txns=(read.txn_id, writer),
                description=(
                    f"txn {read.txn_id} read intermediate value "
                    f"{read.value!r} of txn {writer} (final was "
                    f"{final_value[site]!r})"
                ),
            ))
    return anomalies


def check_lost_updates(history: History) -> list[Anomaly]:
    """Two *committed* transactions both overwrote the same version of
    the same key: one of the updates was applied to a state that never
    included the other — the classic lost update, which SI's
    first-updater-wins rule must prevent."""
    anomalies = []
    overwriters: dict[tuple, set[int]] = {}
    for op in history.writes:
        if op.prev_writer is None and op.prev_ts is None:
            continue  # insert of a fresh key: nothing superseded
        if not history.committed(op.txn_id):
            continue
        site = (op.table, op.key, op.prev_writer, op.prev_ts)
        overwriters.setdefault(site, set()).add(op.txn_id)
    for (table, key, prev_writer, prev_ts), txns in overwriters.items():
        if len(txns) > 1:
            anomalies.append(Anomaly(
                kind="lost-update",
                table=table, key=key,
                txns=tuple(sorted(txns)),
                description=(
                    f"txns {sorted(txns)} each overwrote the same version "
                    f"of {key!r} (writer {prev_writer} @ {prev_ts}): one "
                    f"update is lost"
                ),
            ))
    return anomalies


def check_write_cycles(history: History) -> list[Anomaly]:
    """G0: a cycle in the write-dependency (ww) graph of committed
    transactions.  Each overwrite induces an edge ``previous writer ->
    overwriter``; with a correct total commit order every edge points
    forward in commit-timestamp order, so any cycle means two
    transactions each installed a version the other's write was based
    on — interleaved writes that no serial order can explain."""
    edges: dict[int, set[int]] = {}
    for op in history.writes:
        prev = op.prev_writer
        if prev is None or prev == op.txn_id:
            continue
        if not history.committed(op.txn_id) or not history.committed(prev):
            continue
        edges.setdefault(prev, set()).add(op.txn_id)
    anomalies = []
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in
             set(edges) | {v for vs in edges.values() for v in vs}}
    reported: set[frozenset] = set()
    for root in sorted(color):
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, typing.Iterator[int]]] = [
            (root, iter(sorted(edges.get(root, ()))))
        ]
        color[root] = GREY
        path = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    cycle = path[path.index(nxt):] + [nxt]
                    members = frozenset(cycle)
                    if members not in reported:
                        reported.add(members)
                        anomalies.append(Anomaly(
                            kind="G0",
                            txns=tuple(sorted(members)),
                            description=(
                                "write cycle among committed txns: "
                                + " -> ".join(str(t) for t in cycle)
                            ),
                        ))
                elif color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return anomalies


# -- snapshot-isolation read consistency -----------------------------------

def check_snapshot_reads(history: History) -> list[Anomaly]:
    """The SI read rule: every read by a transaction with snapshot
    ``b`` must return the newest version committed at or before ``b``
    (or the reader's own write).  Three failure shapes:

    * **si-future-read** — the observed version committed after the
      snapshot (or was still uncommitted and foreign): data from the
      future leaked into the snapshot.
    * **si-stale-read** — a *newer* committed create/delete existed at
      or before the snapshot: the read returned outdated state (the
      fractured-read signature of a bad mid-move handoff).
    * **si-missed-read** — the read found nothing although a committed,
      undeleted version existed at the snapshot (a lost or unroutable
      record).

    Versions whose writer the history never saw act as initial state:
    bootstrap loads, crash-recovery REDO replay, and replica promotion
    all install committed values under pseudo transaction ids with a
    synthetic stamp, so for those reads the check is by *value* — the
    observed row must equal the newest known-committed write at the
    snapshot (or predate any known write).
    """
    anomalies = []
    timeline = history.key_timeline()
    for read in history.reads:
        if read.origin == "cache":
            # Cache hits carry a filler's stamp, not a version stamp:
            # they are judged by check_cache_coherence instead (a stale
            # hit must be flagged as exactly that, once).
            continue
        begin = history.begin_ts.get(read.txn_id)
        if begin is None:
            continue  # begin fell out of the ring: cannot judge
        if read.writer_txn == read.txn_id:
            continue  # own write: trivially consistent
        events = timeline.get((read.table, read.key), ())
        newest = None  # newest known-committed event at the snapshot
        for event in events:
            if event[0] <= begin:
                newest = event
        if read.value is None:
            # Read miss: fine unless a known committed create <= begin
            # was the newest event at the snapshot.
            if newest is not None and newest[1] == "create":
                anomalies.append(Anomaly(
                    kind="si-missed-read",
                    table=read.table, key=read.key,
                    txns=(read.txn_id, newest[2]),
                    description=(
                        f"txn {read.txn_id} (snapshot {begin}) read nothing "
                        f"at {read.key!r}, but txn {newest[2]} committed a "
                        f"version at {newest[0]} <= snapshot"
                    ),
                ))
            continue
        if not history.known(read.writer_txn):
            # Initial state (bootstrap / REDO replay / promoted
            # replica): the stamp is synthetic, so judge by value.
            if newest is None:
                continue  # predates every known write: consistent
            ts, effect, txn_id, value = newest
            if effect == "delete":
                anomalies.append(Anomaly(
                    kind="si-stale-read",
                    table=read.table, key=read.key,
                    txns=(read.txn_id, txn_id),
                    description=(
                        f"txn {read.txn_id} (snapshot {begin}) read "
                        f"initial-state value {read.value!r}, but txn "
                        f"{txn_id} committed a delete at {ts} <= snapshot"
                    ),
                ))
            elif value is not None and read.value != value:
                anomalies.append(Anomaly(
                    kind="si-stale-read",
                    table=read.table, key=read.key,
                    txns=(read.txn_id, txn_id),
                    description=(
                        f"txn {read.txn_id} (snapshot {begin}) read "
                        f"initial-state value {read.value!r}, but txn "
                        f"{txn_id} committed {value!r} at {ts} <= snapshot"
                    ),
                ))
            continue
        v_ts = read.version_ts
        if v_ts is None or v_ts > begin:
            # Foreign version either uncommitted at read time or
            # committed after the snapshot.
            anomalies.append(Anomaly(
                kind="si-future-read",
                table=read.table, key=read.key,
                txns=(read.txn_id, read.writer_txn),
                description=(
                    f"txn {read.txn_id} (snapshot {begin}) observed a "
                    f"version stamped {v_ts} by txn {read.writer_txn} — "
                    f"not committed within the snapshot"
                ),
            ))
            continue
        for ts, effect, txn_id, _value in events:
            if v_ts < ts <= begin:
                anomalies.append(Anomaly(
                    kind="si-stale-read",
                    table=read.table, key=read.key,
                    txns=(read.txn_id, txn_id),
                    description=(
                        f"txn {read.txn_id} (snapshot {begin}) read the "
                        f"version stamped {v_ts}, but txn {txn_id} "
                        f"committed a {effect} at {ts} <= snapshot"
                    ),
                ))
                break
    return anomalies


# -- read-tier checkers ------------------------------------------------------

def check_staleness_bounds(history: History,
                           budget: float) -> list[Anomaly]:
    """Replica reads must stay within the configured lag budget: every
    read the tier served from a replica carries the primary's
    replication lag at serve time, and the router promised to bounce
    anything over ``budget``.  A recorded lag above it means the bound
    was violated, not merely approached."""
    anomalies = []
    for read in history.reads:
        if read.origin != "replica" or read.lag is None:
            continue
        if read.lag > budget:
            anomalies.append(Anomaly(
                kind="staleness-bound",
                table=read.table, key=read.key,
                txns=(read.txn_id,),
                description=(
                    f"txn {read.txn_id} was served from a replica lagging "
                    f"{read.lag} behind the primary (budget {budget})"
                ),
            ))
    return anomalies


def check_cache_coherence(history: History) -> list[Anomaly]:
    """No stale cache hit: once a committed write to a key has *fully
    completed* (its commit acknowledged — which includes the
    write-through/invalidation pass) before a cache read started, that
    read must not observe any older version of the key.

    Two entry shapes exist.  A write-through entry carries its writer's
    identity and commit stamp, so it is judged by stamps like an SI
    read.  A cache-aside fill carries no writer (the filler's begin is
    its conservative stamp), so it is judged by *value* against the
    newest committed event the snapshot must see.
    """
    anomalies = []
    timeline = history.key_timeline()
    for read in history.reads:
        if read.origin != "cache":
            continue
        begin = history.begin_ts.get(read.txn_id)
        if begin is None:
            continue
        events = timeline.get((read.table, read.key), ())

        def completed(txn_id: int) -> bool:
            done = history.commit_done.get(txn_id)
            return done is not None and done <= read.t0

        if read.writer_txn is not None and history.known(read.writer_txn):
            v_ts = read.version_ts
            if v_ts is not None and v_ts > begin:
                anomalies.append(Anomaly(
                    kind="cache-stale-hit",
                    table=read.table, key=read.key,
                    txns=(read.txn_id, read.writer_txn),
                    description=(
                        f"txn {read.txn_id} (snapshot {begin}) got a cache "
                        f"hit on a version stamped {v_ts} — newer than its "
                        f"snapshot"
                    ),
                ))
                continue
            for ts, effect, txn_id, _value in events:
                if (v_ts is not None and v_ts < ts <= begin
                        and completed(txn_id)):
                    anomalies.append(Anomaly(
                        kind="cache-stale-hit",
                        table=read.table, key=read.key,
                        txns=(read.txn_id, txn_id),
                        description=(
                            f"txn {read.txn_id} (snapshot {begin}) got a "
                            f"cache hit stamped {v_ts}, but txn {txn_id} "
                            f"committed a {effect} at {ts} <= snapshot and "
                            f"completed before the read — the invalidation "
                            f"was missed"
                        ),
                    ))
                    break
            continue
        # Fill entry: no trustworthy stamp — judge by value against the
        # newest completed committed event visible to the snapshot.
        newest = None
        for event in events:
            if event[0] <= begin and completed(event[2]):
                newest = event
        if newest is None:
            continue
        ts, effect, txn_id, value = newest
        if effect == "delete" or (value is not None
                                  and read.value != value):
            anomalies.append(Anomaly(
                kind="cache-stale-hit",
                table=read.table, key=read.key,
                txns=(read.txn_id, txn_id),
                description=(
                    f"txn {read.txn_id} (snapshot {begin}) got cached value "
                    f"{read.value!r}, but txn {txn_id} committed "
                    f"{'a delete' if effect == 'delete' else repr(value)} "
                    f"at {ts} <= snapshot and completed before the read"
                ),
            ))
    return anomalies


def check_view_checkpoints(
        checkpoints: typing.Sequence[ViewCheckpoint],
        lag_bound: float | None = None) -> list[Anomaly]:
    """Materialized views: at every quiesced checkpoint the incremental
    state must be bit-identical to a from-scratch recompute
    (**view-divergence** otherwise), and — when a bound is configured —
    the observed fold lag must stay inside it (**view-lag**)."""
    anomalies = []
    for checkpoint in checkpoints:
        if not checkpoint.matches:
            anomalies.append(Anomaly(
                kind="view-divergence",
                table=checkpoint.view,
                description=(
                    f"t={checkpoint.t:.1f} [{checkpoint.label}]: "
                    f"incremental fingerprint "
                    f"{checkpoint.incremental_fingerprint[:12]}… != "
                    f"recomputed {checkpoint.recomputed_fingerprint[:12]}…"
                ),
            ))
        if lag_bound is not None and checkpoint.lag > lag_bound:
            anomalies.append(Anomaly(
                kind="view-lag",
                table=checkpoint.view,
                description=(
                    f"t={checkpoint.t:.1f} [{checkpoint.label}]: view lag "
                    f"{checkpoint.lag:.3f}s exceeds the bound "
                    f"{lag_bound:.3f}s"
                ),
            ))
    return anomalies


# -- cost conservation -----------------------------------------------------

def check_cost_conservation(history: History) -> list[Anomaly]:
    """Each acknowledged request's breakdown is closed at its ack, so
    ``other`` is its response minus the named buckets.  A stall charged
    twice pushes ``other`` below zero (**double-charge**); the anomaly
    names the transaction, its kind, its response and every bucket."""
    anomalies = []
    for op in history.ops:
        costs = op.costs
        # 1e-9 s of slack for float rounding.
        if op.kind != ACK or costs is None or costs.other >= -1e-9:
            continue
        buckets = ", ".join(f"{name} {seconds * 1000.0:.3f}"
                            for name, seconds in costs.as_dict().items())
        anomalies.append(Anomaly(
            kind="double-charge",
            table=op.table,
            txns=(op.txn_id,),
            description=(
                f"txn {op.txn_id} ({op.table}) answered in "
                f"{(op.t1 - op.t0) * 1000.0:.3f} ms but its buckets "
                f"over-count it (ms): {buckets}"
            ),
        ))
    return anomalies


# -- partition-table coverage ----------------------------------------------

def check_partition_coverage(
        checkpoints: typing.Sequence[CoverageCheckpoint]) -> list[Anomaly]:
    """Every checkpoint must tile each table's keyspace: consecutive
    ranges adjacent (no gaps, no overlaps), the hull stable across the
    run, and every location routable (non-empty candidates) — at every
    instant, including mid-move."""
    anomalies: list[Anomaly] = []
    hulls: dict[str, tuple] = {}
    for checkpoint in checkpoints:
        for table, entries in checkpoint.tables.items():
            if not entries:
                anomalies.append(Anomaly(
                    kind="coverage-gap", table=table,
                    description=(
                        f"t={checkpoint.t:.1f}: table has no partitions"
                    ),
                ))
                continue
            for entry in entries:
                if not entry.candidates:
                    anomalies.append(Anomaly(
                        kind="coverage-unroutable", table=table,
                        description=(
                            f"t={checkpoint.t:.1f}: partition "
                            f"{entry.partition_id} has no candidate nodes"
                        ),
                    ))
            for prev, nxt in zip(entries, entries[1:]):
                if prev.high is None or nxt.low is None:
                    anomalies.append(Anomaly(
                        kind="coverage-overlap", table=table,
                        description=(
                            f"t={checkpoint.t:.1f}: unbounded range not at "
                            f"the edge (partitions {prev.partition_id}, "
                            f"{nxt.partition_id})"
                        ),
                    ))
                elif prev.high < nxt.low:
                    anomalies.append(Anomaly(
                        kind="coverage-gap", table=table,
                        description=(
                            f"t={checkpoint.t:.1f}: gap between "
                            f"{prev.high!r} and {nxt.low!r} (partitions "
                            f"{prev.partition_id}, {nxt.partition_id})"
                        ),
                    ))
                elif prev.high > nxt.low:
                    anomalies.append(Anomaly(
                        kind="coverage-overlap", table=table,
                        description=(
                            f"t={checkpoint.t:.1f}: ranges overlap between "
                            f"{nxt.low!r} and {prev.high!r} (partitions "
                            f"{prev.partition_id}, {nxt.partition_id})"
                        ),
                    ))
            hull = (entries[0].low, entries[-1].high)
            if table not in hulls:
                hulls[table] = hull
            elif hulls[table] != hull:
                anomalies.append(Anomaly(
                    kind="coverage-gap", table=table,
                    description=(
                        f"t={checkpoint.t:.1f}: table hull changed from "
                        f"{hulls[table]!r} to {hull!r}"
                    ),
                ))
    return anomalies


# -- replica convergence ----------------------------------------------------

def check_replica_convergence(cluster: "Cluster") -> list[Anomaly]:
    """After a run quiesces, every non-stale replica on a live holder
    must replay (through the same commit/abort discipline recovery
    uses) to exactly the primary's committed contents — synchronous
    shipping promises nothing less."""
    anomalies: list[Anomaly] = []
    for replica_set in cluster.catalog.replica_sets.values():
        primary = cluster.worker(replica_set.primary_node_id)
        partition = primary.partitions.get(replica_set.partition_id)
        if partition is None:
            continue  # primary moved/unavailable: nothing to compare
        primary_rows = {version.key: tuple(version.values)
                        for version in iter_committed_rows(partition)}
        for replica in replica_set.replicas:
            if replica.stale:
                continue
            if not cluster.worker(replica.holder_node_id).is_serving:
                continue
            replica_rows = _replay_replica_log(replica.log)
            for key, values in primary_rows.items():
                got = replica_rows.get(key)
                if got != values:
                    anomalies.append(Anomaly(
                        kind="replica-divergence",
                        table=replica_set.table, key=key,
                        description=(
                            f"partition {replica_set.partition_id} replica "
                            f"on node {replica.holder_node_id}: key {key!r} "
                            f"is {got!r}, primary has {values!r}"
                        ),
                    ))
            for key in replica_rows:
                if key not in primary_rows:
                    anomalies.append(Anomaly(
                        kind="replica-divergence",
                        table=replica_set.table, key=key,
                        description=(
                            f"partition {replica_set.partition_id} replica "
                            f"on node {replica.holder_node_id}: key {key!r} "
                            f"present on the replica, absent on the primary"
                        ),
                    ))
    return anomalies


def _replay_replica_log(log) -> dict[typing.Any, tuple]:
    """Logical replay of a replica log: effects of committed
    transactions only, aborts superseding commits, in LSN order."""
    committed: set[int] = set()
    aborted: set[int] = set()
    for record in log.records:
        if record.kind == "commit":
            committed.add(record.txn_id)
        elif record.kind == "abort":
            aborted.add(record.txn_id)
    committed -= aborted
    rows: dict[typing.Any, tuple] = {}
    for record in log.records:
        if record.txn_id not in committed:
            continue
        if record.kind in ("insert", "update"):
            _table, key, values = record.payload
            rows[key] = tuple(values)
        elif record.kind == "delete":
            _table, key = record.payload
            rows.pop(key, None)
    return rows


# -- the full audit ---------------------------------------------------------

@dataclasses.dataclass
class AuditReport:
    """Everything one audited run produced: anomalies plus the history
    statistics needed to judge how much evidence backs the verdict."""

    anomalies: list[Anomaly]
    stats: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.anomalies

    def descriptions(self) -> list[str]:
        return [f"{a.kind}: {a.description}" for a in self.anomalies]


def audit_history(recorder: HistoryRecorder,
                  cluster: "Cluster | None" = None) -> AuditReport:
    """Run every checker over a recorder's history.  ``cluster``, when
    given, additionally enables the replica-convergence comparison
    (it needs live catalog state, not just the history).

    The read-tier bounds are the ones the recorder carries (a run that
    installed a :class:`repro.reads.ReadTier` sets them).  Cache
    coherence and view equivalence always run — over zero cache reads
    and zero view checkpoints they are vacuous, so plain runs are
    unaffected.
    """
    history = History.from_recorder(recorder)
    anomalies: list[Anomaly] = []
    anomalies += check_aborted_reads(history)
    anomalies += check_intermediate_reads(history)
    anomalies += check_lost_updates(history)
    anomalies += check_write_cycles(history)
    anomalies += check_snapshot_reads(history)
    anomalies += check_partition_coverage(recorder.coverage)
    if recorder.staleness_budget is not None:
        anomalies += check_staleness_bounds(history,
                                            recorder.staleness_budget)
    anomalies += check_cache_coherence(history)
    anomalies += check_view_checkpoints(
        recorder.view_checkpoints, recorder.view_lag_bound)
    anomalies += check_cost_conservation(history)
    if cluster is not None and cluster.catalog.replica_sets:
        anomalies += check_replica_convergence(cluster)
    return AuditReport(anomalies=anomalies, stats=recorder.stats())
