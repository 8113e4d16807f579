"""Operation-history recording: the raw material for isolation proofs.

The paper's central claim is that physiological repartitioning moves
segments between nodes *without* breaking transactional semantics
(Sect. 2, Sect. 4).  The chaos and failover harnesses assert coarse
invariants (zero lost commits, no orphan extents), but a move that
silently produced a fractured read, a lost update, or a stale-replica
read would pass every one of those gates.  This module records a
Jepsen-style operation history — every begin / read / write / commit /
abort, with transaction id, key, version stamp, and simulated-clock
interval — so the offline checkers (:mod:`repro.audit.checkers`) can
prove isolation held, run by run.

Design constraints:

* **Zero cost when off.**  Recording is disabled by default; every hook
  site guards on ``txns.history is not None``, a single attribute test,
  so perf baselines and determinism goldens are untouched.
* **No simulation interaction.**  The recorder never creates events,
  timeouts, or processes — attaching it cannot perturb the virtual
  clock.  (Coverage checkpoints are *driven* by existing loops, e.g.
  the workload driver's meter loop.)
* **Bounded memory.**  Operations land in a ring buffer; when it
  overflows, the oldest operations are dropped and the drop count is
  surfaced in :meth:`HistoryRecorder.stats` so a truncated history is
  never silently mistaken for a complete one.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.index.global_table import GlobalPartitionTable
    from repro.metrics.breakdown import CostBreakdown
    from repro.txn.manager import Transaction

#: Operation kinds, mirroring the transaction lifecycle plus the
#: client-side acknowledgement (the moment a result left the system).
BEGIN = "begin"
READ = "read"
WRITE = "write"
COMMIT = "commit"
ABORT = "abort"
ACK = "ack"

#: Default ring capacity: generous for every smoke/experiment scale
#: this repo runs, small enough to stay a fraction of a full sweep's
#: working set (an Op is a slotted record of a dozen scalars).
DEFAULT_CAPACITY = 1 << 20


@dataclasses.dataclass(slots=True)
class Op:
    """One recorded operation.

    ``ts`` carries the oracle timestamp that orders the operation in
    the transaction-level serialization (begin timestamp for ``begin``,
    commit timestamp for ``commit``); ``t0``/``t1`` carry the
    simulated-clock interval the operation physically occupied.
    """

    seq: int
    kind: str
    txn_id: int
    table: str | None = None
    key: typing.Any = None
    value: tuple | None = None
    #: Reads: creator of the observed version and its commit stamp
    #: (``None`` while the creator was still uncommitted — itself
    #: evidence, see checkers).
    writer_txn: int | None = None
    version_ts: int | None = None
    #: Writes: which kind of write (insert / update / delete), and the
    #: identity of the version this write superseded, if any.
    subkind: str | None = None
    prev_writer: int | None = None
    prev_ts: int | None = None
    #: Oracle timestamp (begin_ts / commit_ts) where applicable.
    ts: int | None = None
    #: Simulated-clock interval.
    t0: float = 0.0
    t1: float = 0.0
    #: Acks: how many attempts the client spent, and the request's
    #: closed cost breakdown (its buckets sum to ``t1 - t0``).
    attempts: int | None = None
    costs: "CostBreakdown | None" = None
    #: Reads: which copy answered — ``None`` for the primary path,
    #: ``"replica"`` for a segment replica's row state, ``"cache"`` for
    #: the distributed cache.  The staleness and coherence checkers
    #: select on this.
    origin: str | None = None
    #: Replica reads: the primary's replication lag (WAL records not
    #: yet acked by the serving holder) at serve time — what the
    #: staleness-bound checker compares against the budget.
    lag: float | None = None

    # -- constructors for synthetic histories (property tests) -------------

    @classmethod
    def begin(cls, txn_id: int, ts: int, at: float = 0.0) -> "Op":
        return cls(0, BEGIN, txn_id, ts=ts, t0=at, t1=at)

    @classmethod
    def read(cls, txn_id: int, table: str, key: typing.Any,
             value: tuple | None, writer_txn: int | None = None,
             version_ts: int | None = None, at: float = 0.0,
             origin: str | None = None, lag: float | None = None) -> "Op":
        return cls(0, READ, txn_id, table=table, key=key, value=value,
                   writer_txn=writer_txn, version_ts=version_ts,
                   t0=at, t1=at, origin=origin, lag=lag)

    @classmethod
    def write(cls, txn_id: int, subkind: str, table: str, key: typing.Any,
              value: tuple | None = None, prev_writer: int | None = None,
              prev_ts: int | None = None, at: float = 0.0) -> "Op":
        return cls(0, WRITE, txn_id, table=table, key=key, value=value,
                   subkind=subkind, prev_writer=prev_writer,
                   prev_ts=prev_ts, t0=at, t1=at)

    @classmethod
    def commit(cls, txn_id: int, ts: int, at: float = 0.0) -> "Op":
        return cls(0, COMMIT, txn_id, ts=ts, t0=at, t1=at)

    @classmethod
    def abort(cls, txn_id: int, at: float = 0.0) -> "Op":
        return cls(0, ABORT, txn_id, t0=at, t1=at)


@dataclasses.dataclass
class CoverageCheckpoint:
    """A snapshot of the global partition table's routing state, taken
    at one instant — including mid-move, when dual pointers exist."""

    t: float
    label: str
    #: table -> ordered entries, as the GPT keeps them.
    tables: dict[str, list["CoverageEntry"]]


@dataclasses.dataclass
class CoverageEntry:
    partition_id: int
    low: typing.Any
    high: typing.Any
    candidates: tuple[int, ...]
    available: bool
    moving: bool


@dataclasses.dataclass
class ViewCheckpoint:
    """One materialized-view equivalence checkpoint: the incremental
    state's fingerprint against a from-scratch recompute, taken while
    the cluster was quiesced, plus the view lag at that instant."""

    t: float
    label: str
    view: str
    lag: float
    incremental_fingerprint: str
    recomputed_fingerprint: str

    @property
    def matches(self) -> bool:
        return self.incremental_fingerprint == self.recomputed_fingerprint


class HistoryRecorder:
    """Ring-buffered operation history plus coverage checkpoints.

    Attach with :meth:`attach` (sets ``cluster.txns.history``); every
    hook in the transaction manager, the worker access layer, the
    master's router, and the OLTP client then records through it.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 coverage_capacity: int | None = None,
                 dedupe_coverage: bool = False):
        if capacity < 1:
            raise ValueError("history capacity must be positive")
        if coverage_capacity is not None and coverage_capacity < 1:
            raise ValueError("coverage capacity must be positive")
        self.capacity = capacity
        self.ops: collections.deque[Op] = collections.deque(maxlen=capacity)
        self.coverage: list[CoverageCheckpoint] = []
        #: Cap on *retained* coverage checkpoints (None = unbounded, the
        #: historical behaviour); overflow drops the oldest and counts it.
        self.coverage_capacity = coverage_capacity
        #: When set, a snapshot identical to the previous retained one
        #: is folded into it instead of stored again — routing state is
        #: step-wise constant, so hours-long runs mostly snapshot the
        #: same layout; the fold keeps memory proportional to the number
        #: of *layout changes*, not samples, without losing any anomaly
        #: the checkers could have seen (they compare consecutive
        #: distinct states).
        self.dedupe_coverage = dedupe_coverage
        self.recorded = 0
        self.counts: dict[str, int] = {}
        self.coverage_taken = 0
        self.coverage_deduped = 0
        self.coverage_dropped = 0
        self._cleared_ops = 0
        self.windows_reset = 0
        #: Materialized-view equivalence checkpoints (read tier runs).
        self.view_checkpoints: list[ViewCheckpoint] = []
        #: Read-tier audit bounds, set by the run that knows its
        #: configuration; ``None`` disables the respective checker.
        self.staleness_budget: float | None = None
        self.view_lag_bound: float | None = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self, cluster) -> "HistoryRecorder":
        """Install this recorder on the cluster's transaction manager
        (the single shared hook point every layer consults)."""
        cluster.txns.history = self
        return self

    # -- recording ---------------------------------------------------------

    def _push(self, op: Op) -> Op:
        op.seq = self.recorded
        self.recorded += 1
        self.counts[op.kind] = self.counts.get(op.kind, 0) + 1
        self.ops.append(op)
        return op

    def record_begin(self, txn: "Transaction", now: float) -> None:
        self._push(Op(0, BEGIN, txn.txn_id, ts=txn.begin_ts, t0=now, t1=now))

    def record_read(self, txn: "Transaction", table: str, key: typing.Any,
                    version, t0: float, t1: float) -> None:
        """A point read that found ``version`` (a RecordVersion)."""
        self._push(Op(
            0, READ, txn.txn_id, table=table, key=key,
            value=tuple(version.values),
            writer_txn=version.created_by, version_ts=version.created_ts,
            t0=t0, t1=t1,
        ))

    def record_read_miss(self, txn: "Transaction", table: str,
                         key: typing.Any, t0: float, t1: float,
                         origin: str | None = None) -> None:
        """A point read that found nothing on any candidate node (or,
        with ``origin="replica"``, a definitive miss in a replica's
        row state)."""
        self._push(Op(0, READ, txn.txn_id, table=table, key=key,
                      value=None, t0=t0, t1=t1, origin=origin))

    def record_replica_read(self, txn: "Transaction", table: str,
                            key: typing.Any, value: tuple,
                            writer_txn: int | None, version_ts: int | None,
                            t0: float, t1: float,
                            lag: float | None = None) -> None:
        """A point read answered from a segment replica's row state.
        Carries the real writer identity and commit stamp, so it takes
        part in the snapshot-isolation proof like any primary read —
        plus the replication lag for the staleness-bound checker."""
        self._push(Op(
            0, READ, txn.txn_id, table=table, key=key, value=tuple(value),
            writer_txn=writer_txn, version_ts=version_ts,
            t0=t0, t1=t1, origin="replica", lag=lag,
        ))

    def record_cache_hit(self, txn: "Transaction", table: str,
                         key: typing.Any, value: tuple,
                         writer_txn: int | None, version_ts: int | None,
                         t0: float, t1: float) -> None:
        """A point read answered by the distributed cache.  A filled
        entry has no writer identity (``writer_txn is None`` and the
        filler's begin as ``version_ts``), so cache reads are audited
        by the coherence checker, not the SI checker."""
        self._push(Op(
            0, READ, txn.txn_id, table=table, key=key, value=tuple(value),
            writer_txn=writer_txn, version_ts=version_ts,
            t0=t0, t1=t1, origin="cache",
        ))

    def record_write(self, txn: "Transaction", subkind: str, table: str,
                     key: typing.Any, value: tuple | None,
                     prev, t0: float, t1: float) -> None:
        """A write that succeeded locally (``prev`` is the superseded
        RecordVersion for updates/deletes, None for inserts)."""
        self._push(Op(
            0, WRITE, txn.txn_id, table=table, key=key,
            value=None if value is None else tuple(value),
            subkind=subkind,
            prev_writer=None if prev is None else prev.created_by,
            prev_ts=None if prev is None else prev.created_ts,
            t0=t0, t1=t1,
        ))

    def record_commit(self, txn: "Transaction", commit_ts: int,
                      t0: float, t1: float) -> None:
        self._push(Op(0, COMMIT, txn.txn_id, ts=commit_ts, t0=t0, t1=t1))

    def record_abort(self, txn: "Transaction", now: float) -> None:
        self._push(Op(0, ABORT, txn.txn_id, t0=now, t1=now))

    def record_ack(self, txn_id: int, kind: str, t0: float, t1: float,
                   attempts: int, costs: "CostBreakdown") -> None:
        """Client-side acknowledgement: the completed query's interval
        as the client saw it (its real-time window), and what it cost."""
        self._push(Op(0, ACK, txn_id, table=kind, t0=t0, t1=t1,
                      attempts=attempts, costs=costs))

    # -- coverage checkpoints ----------------------------------------------

    def checkpoint_coverage(self, gpt: "GlobalPartitionTable", now: float,
                            label: str = "") -> CoverageCheckpoint:
        """Snapshot the partition table's key-range layout right now —
        the checkers later prove every snapshot tiles each table with
        no gaps or overlaps, even mid-move."""
        tables: dict[str, list[CoverageEntry]] = {}
        for table in gpt.tables():
            tables[table] = [
                CoverageEntry(
                    partition_id=location.partition_id,
                    low=key_range.low, high=key_range.high,
                    candidates=tuple(location.candidate_nodes),
                    available=location.available,
                    moving=location.is_moving,
                )
                for key_range, location in gpt.partitions(table)
            ]
        self.coverage_taken += 1
        if (self.dedupe_coverage and self.coverage
                and self.coverage[-1].tables == tables):
            self.coverage_deduped += 1
            return self.coverage[-1]
        checkpoint = CoverageCheckpoint(t=now, label=label, tables=tables)
        self.coverage.append(checkpoint)
        if (self.coverage_capacity is not None
                and len(self.coverage) > self.coverage_capacity):
            del self.coverage[0]
            self.coverage_dropped += 1
        return checkpoint

    # -- view checkpoints ---------------------------------------------------

    def record_view_checkpoint(self, now: float, label: str, view: str,
                               lag: float, incremental: str,
                               recomputed: str) -> ViewCheckpoint:
        checkpoint = ViewCheckpoint(
            t=now, label=label, view=view, lag=lag,
            incremental_fingerprint=incremental,
            recomputed_fingerprint=recomputed,
        )
        self.view_checkpoints.append(checkpoint)
        return checkpoint

    # -- windowed audits ---------------------------------------------------

    def reset_window(self) -> dict[str, int]:
        """Drop the retained ops and coverage after an epoch-windowed
        audit verdict, returning the closing window's stats.

        Endurance runs audit in windows — run, quiesce, check, reset —
        so memory stays bounded by one window regardless of run length.
        Sound because the checkers already tolerate a history whose
        prefix is missing: reads of pre-window writers are judged by
        value, transactions with no recorded begin are skipped.
        Cumulative counters (``recorded``, per-kind counts) survive;
        only the retained buffers are cleared, and ops cleared here are
        *not* counted as ring-overflow drops.
        """
        summary = self.stats()
        self._cleared_ops += len(self.ops)
        self.ops.clear()
        self.coverage.clear()
        self.view_checkpoints.clear()
        self.windows_reset += 1
        return summary

    # -- introspection -----------------------------------------------------

    @property
    def dropped(self) -> int:
        """Operations lost to ring overflow (window resets excluded)."""
        return self.recorded - self._cleared_ops - len(self.ops)

    def stats(self) -> dict[str, int]:
        out = {
            "ops_recorded": self.recorded,
            "ops_retained": len(self.ops),
            "ops_dropped": self.dropped,
            "coverage_checkpoints": len(self.coverage),
            "coverage_taken": self.coverage_taken,
            "coverage_deduped": self.coverage_deduped,
            "coverage_dropped": self.coverage_dropped,
            "windows_reset": self.windows_reset,
            "view_checkpoints": len(self.view_checkpoints),
        }
        for kind in (BEGIN, READ, WRITE, COMMIT, ABORT, ACK):
            out[kind] = self.counts.get(kind, 0)
        return out

    def __len__(self) -> int:
        return len(self.ops)
