"""Write-ahead logging with group commit and log shipping.

"For durability reasons, write-ahead logs must be maintained at all
times.  When repartitioning, although record ownership changes, log
files remain on the original node ...  Since moving a partition
involves read-locking the entire partition, this operation acts as a
checkpoint." (Sect. 4.3)

The helper-node experiment (Fig. 8) ships log writes to a helper over
the network instead of the local disk — implemented here as a pluggable
sink.

Endurance runs hold the log for simulated hours, so the record store is
a ``deque``: :meth:`LogManager.truncate_before` pops, LSN-exactly, the
records that fell behind the recycling horizon (the checkpoint/
replication/move minimum computed by :mod:`repro.txn.checkpoint`).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing

from repro.hardware.disk import Disk
from repro.hardware.network import Network, NetworkPort
from repro.metrics.breakdown import CostBreakdown
from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.storage.checksum import checksum_of, verify as _verify_checksum

#: Minimum physical write when forcing the log (one log block).
LOG_BLOCK_BYTES = 4096

#: Fixed serialized overhead per log record.
LOG_RECORD_HEADER_BYTES = 48


def _row_crc(kind: str, payload: typing.Any) -> int | None:
    """A row record's row CRC — ``checksum_of((key, values))``, the CRC
    the row's version carries — or ``None`` for any other record.  A
    row record is an ``insert``/``update`` whose payload has the
    ``(table, key, values)`` shape; any other shape, such as a rotten
    wrapper, is not one."""
    if ((kind == "insert" or kind == "update")
            and type(payload) is tuple and len(payload) == 3):
        return checksum_of(payload[1:])
    return None


def _covered(lsn: int, txn_id: int, kind: str, payload: typing.Any,
             row_crc: int | None) -> tuple:
    """What a log record's CRC is taken over: a row record's header and
    table with its row CRC chained behind, instead of re-walking the
    values; any other record's header and whole payload."""
    if row_crc is None:
        return (lsn, txn_id, kind, payload)
    return (lsn, txn_id, kind, payload[0], row_crc)


@dataclasses.dataclass(slots=True)
class LogRecord:
    """One logical log record.  Nothing assigns to a record's fields
    once it is appended: a fault swaps in a ``dataclasses.replace``
    copy, and only the cached ``verified`` verdict is ever set."""

    lsn: int
    txn_id: int
    kind: str  # insert | delete | update | commit | abort | checkpoint
    payload: typing.Any = None
    nbytes: int = LOG_RECORD_HEADER_BYTES
    #: CRC32 over the record's header and payload (see ``_covered``),
    #: stamped by ``LogManager.append``.  ``None`` on hand-built
    #: records (test fixtures) — those verify trivially.
    checksum: int | None = dataclasses.field(default=None, compare=False)
    #: A row record's row CRC as stamped by ``append``, so a replica
    #: append of a verified record can chain it without re-walking the
    #: values.  ``verify`` never trusts it: it recomputes from the
    #: payload.
    row_crc: int | None = dataclasses.field(default=None, compare=False,
                                            repr=False)
    #: The cached verdict, as ``RecordVersion.clean`` is for a page
    #: row: set by ``append`` (it hashed the bytes in hand) and by a
    #: passing ``verify``.  Not an init field, so ``dataclasses.replace``
    #: — how a fault rots or tears a record — yields an unverified copy.
    verified: bool = dataclasses.field(default=False, init=False,
                                       compare=False, repr=False)

    def verify(self, *, where: str = "wal-replay") -> None:
        """Raise ``IntegrityError`` unless the record still matches the
        checksum it was appended with (bit rot / torn write detection
        on every replay and shipment); returns at once on a record
        whose bytes have not changed since they were hashed."""
        if self.verified:
            return
        _verify_checksum(
            _covered(self.lsn, self.txn_id, self.kind, self.payload,
                     _row_crc(self.kind, self.payload)),
            self.checksum, where=where, detail=self.lsn)
        self.verified = True


class LogShippingSink:
    """A remote log destination on a helper node (Fig. 8)."""

    def __init__(self, network: Network, local_port: NetworkPort,
                 remote_port: NetworkPort, remote_disk: Disk):
        self.network = network
        self.local_port = local_port
        self.remote_port = remote_port
        self.remote_disk = remote_disk

    def write(self, nbytes: int):
        """Generator: push log bytes to the helper and persist there."""
        yield from self.network.transfer(
            self.local_port, self.remote_port, nbytes)
        yield from self.remote_disk.write(nbytes, sequential=True)


class LogManager:
    """Per-node WAL: in-memory append, forced flush with group commit."""

    def __init__(self, env: Environment, disk: Disk, name: str = "wal"):
        self.env = env
        self.disk = disk
        self.name = name
        #: The live records, oldest first.  Fault injectors assign to
        #: an index to rot a record in place.
        self.records: collections.deque[LogRecord] = collections.deque()
        self._next_lsn = 0
        self._appended_bytes = 0
        self._flushed_bytes = 0
        self.flushed_lsn = 0
        self._flush_lock = Resource(env, capacity=1, name=f"{name}.flush")
        self._sink: LogShippingSink | None = None
        self.flush_count = 0
        self.bytes_flushed_total = 0
        #: The most recently appended record.
        self.tail: LogRecord | None = None
        # -- retention bookkeeping ----------------------------------------
        #: Payload bytes currently held in memory (after truncation,
        #: not since birth), and records cut by ``truncate_before``.
        self.live_bytes = 0
        self.records_truncated = 0
        #: LSN of the newest checkpoint record, and the REDO start LSN
        #: it implies (its own LSN for plain/move checkpoints, the
        #: payload's ``redo_lsn`` for fuzzy checkpoints).
        self.last_checkpoint_lsn = 0
        self.last_checkpoint_redo_lsn = 0
        #: ``_appended_bytes`` as of the newest checkpoint — the delta
        #: is the dirtied-bytes charge of the next fuzzy checkpoint.
        self.appended_at_last_checkpoint = 0
        #: txn_id -> LSN of the transaction's first data record still
        #: unresolved (popped on commit/abort) — the active-transaction
        #: table a fuzzy checkpoint snapshots.
        self._txn_first_lsn: dict[int, int] = {}

    # -- sink management (log shipping) --------------------------------------

    def ship_to(self, sink: LogShippingSink) -> None:
        """Redirect forced log writes to a helper node."""
        self._sink = sink

    def ship_locally(self) -> None:
        """Return to writing the local log disk."""
        self._sink = None

    @property
    def is_shipping(self) -> bool:
        return self._sink is not None

    # -- append / flush ------------------------------------------------------

    def append(self, txn_id: int, kind: str, payload: typing.Any = None,
               nbytes: int | None = None, row_crc: int | None = None) -> int:
        """Add a record to the in-memory log tail; returns its LSN.

        ``row_crc`` is a row record's ``checksum_of((key, values))``
        when the caller already holds it (the version's own CRC, or a
        verified shipped record's); otherwise it is computed here, once.
        Durability requires a later :meth:`flush` up to this LSN.
        """
        self._next_lsn += 1
        lsn = self._next_lsn
        size = LOG_RECORD_HEADER_BYTES if nbytes is None else nbytes
        if row_crc is None:
            row_crc = _row_crc(kind, payload)
        record = LogRecord(
            lsn, txn_id, kind, payload, size,
            checksum=checksum_of(_covered(lsn, txn_id, kind, payload,
                                          row_crc)),
            row_crc=row_crc,
        )
        record.verified = True
        self.records.append(record)
        self.tail = record
        self.live_bytes += size
        self._appended_bytes += size
        if txn_id > 0:
            if kind == "commit" or kind == "abort":
                self._txn_first_lsn.pop(txn_id, None)
            elif txn_id not in self._txn_first_lsn:
                self._txn_first_lsn[txn_id] = record.lsn
        elif kind == "checkpoint":
            self._point_at_checkpoint(record, self._appended_bytes)
        return record.lsn

    def _point_at_checkpoint(self, record: LogRecord, appended: int) -> None:
        """Make ``record`` the newest checkpoint; ``appended`` is
        ``_appended_bytes`` as of that record."""
        self.last_checkpoint_lsn = record.lsn
        redo = getattr(record.payload, "redo_lsn", None)
        self.last_checkpoint_redo_lsn = record.lsn if redo is None else redo
        self.appended_at_last_checkpoint = appended

    def flush(self, lsn: int, breakdown: CostBreakdown | None = None):
        """Generator: force the log out at least up to ``lsn``.

        Group commit falls out of the flush lock: committers that queue
        behind an in-flight flush usually find their LSN already
        covered when they get the lock and return without I/O.
        """
        t0 = self.env.now
        while self.flushed_lsn < lsn:
            request = yield from self._flush_lock.acquire()
            try:
                if self.flushed_lsn >= lsn:
                    break
                pending = self._appended_bytes - self._flushed_bytes
                target_lsn = self._next_lsn
                target_bytes = self._appended_bytes
                nbytes = max(pending, LOG_BLOCK_BYTES)
                if self._sink is not None:
                    yield from self._sink.write(nbytes)
                else:
                    yield from self.disk.write(nbytes, sequential=True)
                self.flushed_lsn = target_lsn
                self._flushed_bytes = target_bytes
                self.flush_count += 1
                self.bytes_flushed_total += nbytes
            finally:
                self._flush_lock.release(request)
        if breakdown is not None:
            breakdown.add("logging", self.env.now - t0)

    # -- checkpoints and recovery ---------------------------------------------

    def checkpoint(self, payload: typing.Any = None) -> int:
        """Append a checkpoint marker (partition moves act as one)."""
        return self.append(txn_id=0, kind="checkpoint", payload=payload)

    def oldest_active_redo_lsn(self) -> int | None:
        """LSN of the oldest data record of a still-open transaction,
        or None when no transaction with logged writes is open — the
        lower bound a fuzzy checkpoint's ``redo_lsn`` must respect."""
        if not self._txn_first_lsn:
            return None
        return min(self._txn_first_lsn.values())

    def truncate_before(self, lsn: int) -> int:
        """Drop records older than ``lsn``; returns how many were cut.

        After a successful partition move "the old copies and the old
        log file are no longer required".
        """
        records = self.records
        cut = 0
        while records and records[0].lsn < lsn:
            self.live_bytes -= records.popleft().nbytes
            cut += 1
        self.records_truncated += cut
        return cut

    def discard_tail(self, count: int) -> int:
        """Physically drop the newest ``count`` records (a torn tail
        detected at recovery: the crash persisted only a prefix of the
        final flush, so the suffix never existed on disk).  LSNs are
        not reissued — the sequence keeps climbing past the hole, as a
        real log switch would.  Returns how many records were cut."""
        records = self.records
        cut = 0
        lost_checkpoint = False
        while cut < count and records:
            record = records.pop()
            cut += 1
            self.live_bytes -= record.nbytes
            self._appended_bytes -= record.nbytes
            if record.txn_id > 0:
                self._txn_first_lsn.pop(record.txn_id, None)
            elif record.kind == "checkpoint":
                lost_checkpoint = True
        self.tail = records[-1] if records else None
        if self._flushed_bytes > self._appended_bytes:
            self._flushed_bytes = self._appended_bytes
        if lost_checkpoint:
            # The pointers must not outlive their record, or REDO would
            # start behind the newest checkpoint that survives.
            self.last_checkpoint_lsn = self.last_checkpoint_redo_lsn = 0
            self.appended_at_last_checkpoint = 0
            appended = self._appended_bytes
            for record in reversed(records):
                if record.txn_id <= 0 and record.kind == "checkpoint":
                    self._point_at_checkpoint(record, appended)
                    break
                appended -= record.nbytes
        return cut

    def iter_from(self, lsn: int) -> typing.Iterator[LogRecord]:
        """Iterate live records with LSN strictly greater than ``lsn``
        (the bounded REDO scan)."""
        records = self.records
        if not records or records[0].lsn > lsn:
            return iter(records)
        # LSNs climb by one except across a discarded torn tail, so the
        # offset from the head is exact without a hole and an upper
        # bound with one.
        skip = min(lsn - records[0].lsn + 1, len(records))
        while records[skip - 1].lsn > lsn:
            skip -= 1
        return itertools.islice(records, skip, None)

    def verify_all(self, *, where: str) -> None:
        """Verify every live record, oldest first; raise the first
        failure's ``IntegrityError``."""
        for record in self.records:
            record.verify(where=where)

    def committed_ops_since(self, lsn: int = 0) -> list[LogRecord]:
        """Redo scan: data records of transactions with a flushed-side
        commit record, in log order (the recovery contract).

        An abort record supersedes a commit record of the same
        transaction — the pair can only coexist when a crash-abort
        raced a mid-flight commit, and the abort reflects the
        in-memory outcome.
        """
        committed: set[int] = set()
        aborted: set[int] = set()
        for r in self.iter_from(lsn):
            if r.kind == "commit":
                committed.add(r.txn_id)
            elif r.kind == "abort":
                aborted.add(r.txn_id)
        committed -= aborted
        return [
            r for r in self.iter_from(lsn)
            if r.txn_id in committed
            and r.kind in ("insert", "delete", "update")
        ]

    # -- introspection --------------------------------------------------------

    @property
    def live_records(self) -> int:
        """Records currently held in memory (after truncation)."""
        return len(self.records)

    def stats(self) -> dict[str, int]:
        """Retention counters."""
        return {
            "live_records": self.live_records,
            "live_bytes": self.live_bytes,
            "records_truncated": self.records_truncated,
            "next_lsn": self._next_lsn,
        }
