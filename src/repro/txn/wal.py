"""Write-ahead logging with group commit, log shipping, and segments.

"For durability reasons, write-ahead logs must be maintained at all
times.  When repartitioning, although record ownership changes, log
files remain on the original node ...  Since moving a partition
involves read-locking the entire partition, this operation acts as a
checkpoint." (Sect. 4.3)

The helper-node experiment (Fig. 8) ships log writes to a helper over
the network instead of the local disk — implemented here as a pluggable
sink.

Endurance runs hold the log for simulated hours, so the record store is
*segmented*: the tail segment absorbs appends, fills up, and is sealed;
:meth:`LogManager.truncate_before` drops whole sealed segments in O(1)
once they fall behind the recycling horizon (the checkpoint/replication/
move minimum computed by :mod:`repro.txn.checkpoint`), recycling their
shells for future tail segments instead of growing the heap forever.
"""

from __future__ import annotations

import collections
import dataclasses
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

#: Records per log segment before the tail is sealed and a new one
#: starts.  Small enough that a horizon advance frees memory promptly,
#: large enough that sealing is rare on the append path.
DEFAULT_SEGMENT_RECORDS = 1024

#: Recycled (empty) segment shells kept for reuse per log.
_MAX_FREE_SEGMENTS = 8


def log_record_checksum(lsn: int, txn_id: int, kind: str,
                        payload: typing.Any) -> int:
    """The CRC32 a well-formed log record carries (over its header
    fields and the canonical serialization of its payload)."""
    return checksum_of((lsn, txn_id, kind, payload))


@dataclasses.dataclass(frozen=True)
class LogRecord:
    """One logical log record."""

    lsn: int
    txn_id: int
    kind: str  # insert | delete | update | commit | abort | checkpoint
    payload: typing.Any = None
    nbytes: int = LOG_RECORD_HEADER_BYTES
    #: CRC32 over (lsn, txn_id, kind, payload), stamped by
    #: ``LogManager.append``.  ``None`` on hand-built records (test
    #: fixtures) — those verify trivially.
    checksum: int | None = dataclasses.field(default=None, compare=False)

    def verify(self, *, where: str = "wal-replay") -> None:
        """Raise ``IntegrityError`` unless the record still matches the
        checksum it was appended with (bit rot / torn write detection
        on every replay and shipment)."""
        _verify_checksum((self.lsn, self.txn_id, self.kind, self.payload),
                         self.checksum, where=where, detail=self.lsn)


class LogSegment:
    """A fixed-capacity run of consecutive records.

    Only the youngest segment of a log accepts appends; once full it is
    *sealed*.  A sealed segment whose last LSN falls behind the
    recycling horizon is dropped whole — an O(1) deque pop — and its
    shell reused for a future tail segment.
    """

    __slots__ = ("records", "sealed")

    def __init__(self):
        self.records: list[LogRecord] = []
        self.sealed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "sealed" if self.sealed else "tail"
        return f"<LogSegment {state}: {len(self.records)} records>"


class LogRecordsView:
    """Sequence view over a log's live records, across segments.

    Iteration, ``len``, indexing — and item assignment,
    which writes through to the owning segment (the fault injector and
    the audit suite's tamper helpers rely on in-place mutation being
    visible to later replays).
    """

    __slots__ = ("_log",)

    def __init__(self, log: "LogManager"):
        self._log = log

    def __len__(self) -> int:
        return self._log.live_records

    def __iter__(self):
        for segment in self._log._segments:
            yield from segment.records

    def _locate(self, index: int) -> tuple[list[LogRecord], int]:
        n = self._log.live_records
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("log record index out of range")
        for segment in self._log._segments:
            m = len(segment.records)
            if index < m:
                return segment.records, index
            index -= m
        raise IndexError("log record index out of range")  # pragma: no cover

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        records, i = self._locate(index)
        return records[i]

    def __setitem__(self, index: int, value: LogRecord) -> None:
        records, i = self._locate(index)
        records[i] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LogRecordsView of {self._log.name}: {len(self)} records>"


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

    def __init__(self, env: Environment, disk: Disk, name: str = "wal",
                 segment_records: int = DEFAULT_SEGMENT_RECORDS):
        if segment_records < 1:
            raise ValueError("segment_records must be positive")
        self.env = env
        self.disk = disk
        self.name = name
        self.segment_records = segment_records
        self._segments: collections.deque[LogSegment] = collections.deque()
        self._segments.append(LogSegment())
        self._free: list[LogSegment] = []
        self.records = LogRecordsView(self)
        self._next_lsn = 0
        self._appended_bytes = 0
        self._flushed_bytes = 0
        self.flushed_lsn = 0
        self._flush_lock = Resource(env, capacity=1, name=f"{name}.flush")
        self._sink: LogShippingSink | None = None
        self.flush_count = 0
        self.bytes_flushed_total = 0
        #: The most recently appended record (the hot-path accessor the
        #: access layer uses instead of indexing the records view).
        self.tail: LogRecord | None = None
        # -- retention bookkeeping ----------------------------------------
        #: Records / payload bytes currently held in memory (after
        #: truncation, not since birth).
        self.live_records = 0
        self.live_bytes = 0
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
        # -- segment lifecycle counters -----------------------------------
        self.segments_sealed = 0
        self.segments_dropped = 0
        self.segments_recycled = 0
        self.segments_allocated = 1
        self.records_truncated = 0

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

    # -- segment plumbing -----------------------------------------------------

    def _push_segment(self) -> LogSegment:
        if self._free:
            segment = self._free.pop()
            self.segments_recycled += 1
        else:
            segment = LogSegment()
            self.segments_allocated += 1
        self._segments.append(segment)
        return segment

    def _drop_segment(self) -> LogSegment:
        segment = self._segments.popleft()
        segment.records.clear()
        segment.sealed = False
        self.segments_dropped += 1
        if len(self._free) < _MAX_FREE_SEGMENTS:
            self._free.append(segment)
        return segment

    # -- append / flush ------------------------------------------------------

    def append(self, txn_id: int, kind: str, payload: typing.Any = None,
               nbytes: int | None = None) -> int:
        """Add a record to the in-memory log tail; returns its LSN.

        Durability requires a later :meth:`flush` up to this LSN.
        """
        self._next_lsn += 1
        size = LOG_RECORD_HEADER_BYTES if nbytes is None else nbytes
        record = LogRecord(
            self._next_lsn, txn_id, kind, payload, size,
            checksum=log_record_checksum(self._next_lsn, txn_id, kind,
                                         payload),
        )
        segment = self._segments[-1]
        if len(segment.records) >= self.segment_records:
            segment.sealed = True
            self.segments_sealed += 1
            segment = self._push_segment()
        segment.records.append(record)
        self.tail = record
        self.live_records += 1
        self.live_bytes += size
        self._appended_bytes += size
        if txn_id > 0:
            if kind == "commit" or kind == "abort":
                self._txn_first_lsn.pop(txn_id, None)
            elif txn_id not in self._txn_first_lsn:
                self._txn_first_lsn[txn_id] = record.lsn
        elif kind == "checkpoint":
            self.last_checkpoint_lsn = record.lsn
            redo = getattr(payload, "redo_lsn", None)
            self.last_checkpoint_redo_lsn = (
                record.lsn if redo is None else redo
            )
            self.appended_at_last_checkpoint = self._appended_bytes
        return record.lsn

    def flush(self, lsn: int, breakdown: CostBreakdown | None = None):
        """Generator: force the log out at least up to ``lsn``.

        Group commit falls out of the flush lock: committers that queue
        behind an in-flight flush usually find their LSN already
        covered when they get the lock and return without I/O.
        """
        t0 = self.env.now
        while self.flushed_lsn < lsn:
            request = self._flush_lock.request()
            yield request
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

        Whole segments behind the horizon are dropped in O(1) each and
        their shells recycled; only the single boundary segment needs a
        prefix trim, keeping the LSN-exact contract of the monolithic
        implementation at amortized O(1) per retired record.
        """
        cut = 0
        while len(self._segments) > 1:
            head = self._segments[0]
            if not head.records or head.records[-1].lsn >= lsn:
                break
            n = len(head.records)
            nbytes = sum(r.nbytes for r in head.records)
            cut += n
            self.live_records -= n
            self.live_bytes -= nbytes
            self._drop_segment()
        head = self._segments[0].records
        keep_from = 0
        while keep_from < len(head) and head[keep_from].lsn < lsn:
            keep_from += 1
        if keep_from:
            trimmed = head[:keep_from]
            del head[:keep_from]
            cut += len(trimmed)
            self.live_records -= len(trimmed)
            self.live_bytes -= sum(r.nbytes for r in trimmed)
        self.records_truncated += cut
        return cut

    def discard_tail(self, count: int) -> int:
        """Physically drop the newest ``count`` records (a torn tail
        detected at recovery: the crash persisted only a prefix of the
        final flush, so the suffix never existed on disk).  LSNs are
        not reissued — the sequence keeps climbing past the hole, as a
        real log switch would.  Returns how many records were cut."""
        cut = 0
        while cut < count and self._segments:
            segment = self._segments[-1]
            if not segment.records:
                if len(self._segments) == 1:
                    break
                self._segments.pop()
                continue
            record = segment.records.pop()
            cut += 1
            self.live_records -= 1
            self.live_bytes -= record.nbytes
            self._appended_bytes -= record.nbytes
            if record.txn_id > 0:
                self._txn_first_lsn.pop(record.txn_id, None)
        tail = self._segments[-1] if self._segments else None
        if tail is not None and not tail.records and len(self._segments) > 1:
            self._segments.pop()
            tail = self._segments[-1]
        if tail is not None:
            tail.sealed = False
            self.tail = tail.records[-1] if tail.records else None
        if self._flushed_bytes > self._appended_bytes:
            self._flushed_bytes = self._appended_bytes
        return cut

    def iter_from(self, lsn: int) -> typing.Iterator[LogRecord]:
        """Iterate live records with LSN strictly greater than ``lsn``,
        skipping whole segments that end at or before it — the bounded
        REDO scan (recovery never touches pre-checkpoint segments)."""
        for segment in self._segments:
            records = segment.records
            if not records or records[-1].lsn <= lsn:
                continue
            if records[0].lsn > lsn:
                yield from records
                continue
            # Boundary segment: LSNs are consecutive within a segment.
            lo, hi = 0, len(records)
            while lo < hi:
                mid = (lo + hi) // 2
                if records[mid].lsn <= lsn:
                    lo = mid + 1
                else:
                    hi = mid
            for i in range(lo, len(records)):
                yield records[i]

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

    def retention_stats(self) -> dict[str, int]:
        """Segment-lifecycle counters for the metrics report."""
        return {
            "live_records": self.live_records,
            "live_bytes": self.live_bytes,
            "segments": len(self._segments),
            "segments_sealed": self.segments_sealed,
            "segments_dropped": self.segments_dropped,
            "segments_recycled": self.segments_recycled,
            "segments_allocated": self.segments_allocated,
            "records_truncated": self.records_truncated,
            "next_lsn": self._next_lsn,
        }
