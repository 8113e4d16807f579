"""Transaction lifecycle: begin, commit, abort; system transactions.

Commit stamps MVCC timestamps into every version the transaction wrote,
forces the WAL of every node it touched, and releases its locks.  Abort
undoes in-memory changes (new versions removed, delete marks cleared).

"So-called system transactions are provided to guarantee serializability
of record movement" (Sect. 3.5) — they are ordinary transactions with
the ``is_system`` flag, used by the migration engine.
"""

from __future__ import annotations

import enum
import typing

from repro.errors import TransientError
from repro.metrics.breakdown import CostBreakdown
from repro.sim.engine import Environment
from repro.storage.record import RecordVersion
from repro.storage.segment import Segment
from repro.txn.ids import TimestampOracle
from repro.txn.locks import LockManager
from repro.txn.wal import LogManager, LogRecord

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.worker import WorkerNode


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionAborted(TransientError):
    """The transaction cannot continue and must be rolled back."""


class WriteConflictError(TransactionAborted):
    """Snapshot-isolation first-updater-wins conflict."""


class Transaction:
    """One unit of work under either MVCC or MGL-RX."""

    __slots__ = ("txn_id", "begin_ts", "is_system", "declared_read_only",
                 "cc", "breakdown", "state", "commit_ts", "tenant", "redo",
                 "visited_nodes", "announced", "_created", "_deleted",
                 "_dirty_logs")

    def __init__(self, txn_id: int, begin_ts: int, is_system: bool = False,
                 read_only: bool = False, cc: str = "mvcc"):
        self.txn_id = txn_id
        self.begin_ts = begin_ts
        self.is_system = is_system
        #: Concurrency-control discipline the access layer runs this
        #: transaction under: ``"mvcc"`` (snapshot reads, versions
        #: linger) or ``"locking"`` (MGL-RX record locks, single-version
        #: storage reclaimed at commit).
        self.cc = cc
        #: Where every layer this transaction stalls in (locks, latches,
        #: disk, network, log force, replica shipping) adds its wait:
        #: the request loop hangs its request's Fig. 7 accumulator here
        #: on each attempt; ``None`` (system transactions) skips it.
        self.breakdown: CostBreakdown | None = None
        #: Declared up front by the client (``begin(read_only=True)``):
        #: the router may serve this transaction from replicas, the
        #: cache tier, or materialized views, and any write attempt is
        #: refused before it can dirty a page.
        self.declared_read_only = read_only
        self.state = TxnState.ACTIVE
        self.commit_ts: int | None = None
        #: Tenant the traffic engine runs this transaction for (the
        #: read tier's cache accounts fills against per-tenant quotas).
        self.tenant: str | None = None
        #: ``(partition_id, LogRecord)`` of every data record the access
        #: layer logged for this transaction.  :meth:`TransactionManager
        #: .commit` hands the list to the commit stages and takes it off
        #: the transaction, so records still here are exactly the ones
        #: no replica has been offered yet.
        self.redo: list[tuple[int, "LogRecord"]] = []
        #: Remote workers enlisted by the master (one dispatch hop each).
        self.visited_nodes: set[int] = set()
        #: Partitions whose IX write intent was granted to this
        #: transaction (``WorkerNode._announce_write``); the locks are
        #: held until ``release_all``, so a second write there asks the
        #: lock table nothing.
        self.announced: set[int] = set()
        self._created: list[tuple[Segment, RecordVersion, tuple[int, int]]] = []
        self._deleted: list[tuple[Segment, RecordVersion]] = []
        self._dirty_logs: list[LogManager] = []

    # -- write-set bookkeeping (called by mvcc / access layer) ---------------

    def note_created(self, segment: Segment, version: RecordVersion,
                     location: tuple[int, int]) -> None:
        self._created.append((segment, version, location))

    def note_deleted(self, segment: Segment, version: RecordVersion) -> None:
        self._deleted.append((segment, version))

    def require_writable(self) -> None:
        """Refuse writes under a declared read-only transaction —
        checked by the access layer *before* any version is mutated, so
        the refusal never leaves a half-applied write behind."""
        if self.declared_read_only:
            raise TransactionAborted(
                f"txn {self.txn_id} was declared read-only but attempted "
                f"a write"
            )

    def note_log(self, log: LogManager) -> None:
        if log not in self._dirty_logs:
            self._dirty_logs.append(log)

    @property
    def is_read_only(self) -> bool:
        return not self._created and not self._deleted

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionAborted(
                f"txn {self.txn_id} is {self.state.value}, not active"
            )


class TransactionManager:
    """Cluster-wide transaction table and lifecycle driver."""

    def __init__(self, env: Environment,
                 lock_manager: LockManager | None = None):
        self.env = env
        self.oracle = TimestampOracle()
        self.locks = lock_manager or LockManager(env)
        self._active: dict[int, Transaction] = {}
        #: Writer transactions mid-commit: commit timestamp assigned
        #: (their versions are already stamped, hence visible to late
        #: snapshots) but the commit not yet acknowledged — so cache
        #: entries and replica states may not reflect them yet.  The
        #: read tier bounces any snapshot at or past the oldest such
        #: timestamp to the primary (:meth:`safe_read_horizon`).
        self._committing: dict[int, int] = {}
        self.committed_count = 0
        self.aborted_count = 0
        #: Commit pipeline: generator stages ``(txn, redo)`` run in list
        #: order for every writing commit, after the local log force and
        #: before the commit is acknowledged; a stage charges its stall
        #: to ``txn.breakdown``.
        #: Subscribers append in their constructors, so construction
        #: order is commit order: replica shipping (``ReplicationManager``)
        #: before cache coherence and view feeding (``ReadTier``, which
        #: takes the replicator as a constructor argument).
        self.commit_stages: list[typing.Callable] = []
        #: Plain-callable counterpart ``(txn)`` for aborts (no sim time
        #: passes): the replicator retracts a half-shipped commit.
        self.abort_stages: list[typing.Callable] = []
        #: Optional operation-history recorder (repro.audit).  ``None``
        #: by default: every hook site below and in the access layer is
        #: a single attribute test, so perf baselines and determinism
        #: goldens are untouched unless a run opts in.
        self.history = None

    # -- lifecycle -----------------------------------------------------------

    def begin(self, is_system: bool = False, read_only: bool = False,
              cc: str = "mvcc") -> Transaction:
        txn = Transaction(self.oracle.next(), self.oracle.current, is_system,
                          read_only, cc)
        self._active[txn.txn_id] = txn
        if self.history is not None:
            self.history.record_begin(txn, self.env.now)
        return txn

    def commit(self, txn: Transaction):
        """Generator: make the transaction durable and visible.

        A ``cc="locking"`` transaction follows the single-version
        storage discipline: versions it superseded are physically
        reclaimed at commit — under strict 2PL no snapshot can still
        need them.  Under MVCC they linger for old readers (Fig. 3's
        storage-overhead line) until vacuumed.
        """
        txn.require_active()
        commit_start = self.env.now
        commit_ts = self.oracle.next()
        # Stamp the transaction early: the commit stages (replication,
        # cache invalidation, view maintenance) run inside this call
        # and need the timestamp; a crash-abort mid-flush resets it.
        txn.commit_ts = commit_ts
        if not txn.is_read_only:
            self._committing[txn.txn_id] = commit_ts
        for _segment, version, _location in txn._created:
            version.created_ts = commit_ts
        for _segment, version in txn._deleted:
            version.deleted_ts = commit_ts
            version.home.dead[version.page_no, version.slot] = version
        for log in txn._dirty_logs:
            lsn = log.append(txn.txn_id, "commit")
            yield from log.flush(lsn, txn.breakdown)
        # A crash-abort (fault injection) may have rolled us back while
        # the log force or a stage was in flight; the abort record it
        # appended supersedes our commit record during recovery, and no
        # later stage may act on the loser.
        txn.require_active()
        redo = txn.redo
        if redo:
            # Off the transaction from here: the records are in flight
            # to the replicas, no longer buffered behind them
            # (``ReplicationManager.acked_horizon`` stops pinning them).
            txn.redo = []
            for stage in self.commit_stages:
                yield from stage(txn, redo)
                txn.require_active()
        if txn.cc == "locking":
            for segment, version in txn._deleted:
                home = version.home or segment
                for page_no, slot, candidate in home.versions_for(version.key):
                    if candidate is version:
                        home.remove_version(version.key, page_no, slot)
                        break
        txn.commit_ts = commit_ts
        txn.state = TxnState.COMMITTED
        self._finish(txn)
        self.committed_count += 1
        if self.history is not None:
            self.history.record_commit(txn, commit_ts, commit_start,
                                       self.env.now)

    def abort(self, txn: Transaction) -> None:
        """Undo the transaction's in-memory effects (no I/O needed:
        nothing of an uncommitted transaction is required on disk)."""
        txn.require_active()
        # Undo in reverse order so update pairs unwind correctly.  The
        # stored location may be stale if a segment split relocated the
        # version, so resolve by identity through its current home.
        for segment, version, (page_no, slot) in reversed(txn._created):
            home = version.home or segment
            for pno, slot_no, candidate in home.versions_for(version.key):
                if candidate is version:
                    home.remove_version(version.key, pno, slot_no)
                    break
            else:
                raise RuntimeError(
                    f"undo lost track of version {version.key!r} "
                    f"created by txn {txn.txn_id}"
                )
        for _segment, version in txn._deleted:
            if version.deleted_by == txn.txn_id:
                version.deleted_by = None
                # A commit interrupted mid-flush may already have
                # stamped the delete; the abort wins.
                if version.deleted_ts is not None:
                    version.deleted_ts = None
                    # A version this transaction also created left the
                    # dead set with its undo above.
                    version.home.dead.pop(
                        (version.page_no, version.slot), None)
        # Likewise a commit interrupted mid-flush already stamped the
        # transaction itself; the abort voids that too.
        txn.commit_ts = None
        for log in txn._dirty_logs:
            log.append(txn.txn_id, "abort")
        for stage in self.abort_stages:
            stage(txn)
        txn.state = TxnState.ABORTED
        self._finish(txn)
        self.aborted_count += 1
        if self.history is not None:
            self.history.record_abort(txn, self.env.now)

    def abort_if_active(self, txn: Transaction) -> None:
        """Error-path rollback: abort unless a crash-abort (or the
        failed commit itself) already finished the transaction."""
        if txn.state is TxnState.ACTIVE:
            self.abort(txn)

    def abort_touching(self, worker: "WorkerNode") -> None:
        """Crash-abort every active transaction that enlisted ``worker``
        or dirtied its WAL, so its locks release instead of stranding
        survivors on a node that crashed, was cut off or is draining."""
        for txn in self.active_transactions():
            if worker.node_id in txn.visited_nodes \
                    or worker.wal in txn._dirty_logs:
                self.abort(txn)

    def _finish(self, txn: Transaction) -> None:
        self._active.pop(txn.txn_id, None)
        self._committing.pop(txn.txn_id, None)
        self.locks.release_all(txn.txn_id)
        txn.redo = []

    # -- snapshot horizon ------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    def active_transactions(self) -> list[Transaction]:
        return list(self._active.values())

    def iter_active(self) -> typing.Iterable[Transaction]:
        """The active transactions, uncopied: for a reader that begins,
        commits and aborts nothing while it walks them."""
        return self._active.values()

    def oldest_active_begin_ts(self) -> int:
        """GC horizon: versions deleted before this are invisible to
        every live snapshot."""
        if not self._active:
            return self.oracle.current + 1
        return min(t.begin_ts for t in self._active.values())

    def safe_read_horizon(self) -> int:
        """Highest snapshot timestamp the read tier may serve from a
        *derived* copy (cache entry, replica row state, materialized
        view) right now.

        A commit stamps its timestamp and its versions at commit entry,
        then spends simulated time on log forces and replica shipping
        before cache invalidation and view maintenance run.  A snapshot
        taken at or past an in-flight commit's timestamp could therefore
        see that commit on the primary but miss it in a derived copy —
        so such snapshots must be answered by the primary.  Snapshots at
        or below the returned horizon are safe: every commit stamped at
        or before it has fully acknowledged, which includes invalidating
        the cache, shipping every live replica, and feeding the views.
        """
        if not self._committing:
            return self.oracle.current
        return min(self._committing.values()) - 1
