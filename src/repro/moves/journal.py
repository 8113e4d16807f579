"""Durable move journal: the crash-safety record of repartitioning.

A segment move runs PREPARE -> COPY -> SWITCH -> DONE, or ends ABORTED
(rolled back) or FAILED (resolved by failover after a node death).
Each transition and acknowledged copy chunk goes through the master's
WAL, so a crash of either end or of the coordinator leaves enough to
resume from the last acknowledged chunk or to roll back cleanly — the
paper's "the master is updated first" (Sect. 4.3) carried through the
faults.  A range move has its own entry, so failover can tell "nothing
switched yet" from "half the segments already serve on the target".
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.txn.wal import LogManager

#: Segment-move phases, in protocol order.
PREPARE = "PREPARE"
COPY = "COPY"
SWITCH = "SWITCH"
DONE = "DONE"
ABORTED = "ABORTED"
#: Terminal phase stamped by failover when a node death made the move
#: unresolvable by rollback (e.g. data already switched to a dead
#: target) — closed for invariant purposes, but not a success.
FAILED = "FAILED"

_OPEN_PHASES = (PREPARE, COPY, SWITCH)

#: ``MoveJournal.stats`` keys that closed segment moves add to.
_CLOSED_COUNTERS = (
    "moves_total", "first_try_moves", "retried_moves", "resumed_moves",
    "rolled_back_moves", "failed_moves", "retries_total",
    "resumes_total", "bytes_shipped", "bytes_reshipped")

#: Range-move registration styles (see ``PhysiologicalPartitioning``):
#: ``handover`` replaced the source's GPT entry outright, ``split``
#: carved the moved range out of it.
HANDOVER = "handover"
SPLIT = "split"


@dataclasses.dataclass
class SegmentMoveEntry:
    """Journal record of one segment-storage move."""

    move_id: int
    segment_id: int
    source_node: int
    target_node: int
    bytes_total: int
    chunk_bytes: int
    phase: str = PREPARE
    #: Chunks acknowledged as written on the target — the resume point.
    chunks_acked: int = 0
    #: Fencing token: GPT epoch of the governed partition at PREPARE.
    epoch: int | None = None
    #: ``(table, partition_id)`` whose epoch guards the switch, or None
    #: for moves that do not transfer ownership (physical scheme).
    fence: tuple[str, int] | None = None
    #: Owning range move, when this segment moves as part of one.
    range_move_id: int | None = None
    #: Master-WAL LSN of the PREPARE record — while the move is open it
    #: pins the WAL's recycling horizon (resume needs the journal).
    prepare_lsn: int | None = None
    # -- accounting ------------------------------------------------------
    retries: int = 0
    #: Retries that continued from a non-zero chunk checkpoint instead
    #: of restarting the copy from byte 0.
    resumes: int = 0
    bytes_shipped: int = 0
    #: Bytes whose chunk had to be re-sent after a mid-copy fault — a
    #: from-scratch recopy would re-ship everything acknowledged so far.
    bytes_reshipped: int = 0
    detail: str = ""

    @property
    def is_open(self) -> bool:
        return self.phase in _OPEN_PHASES


@dataclasses.dataclass
class RangeMoveEntry:
    """Journal record of one ownership-transferring range move."""

    move_id: int
    table: str
    source_partition_id: int
    target_partition_id: int
    source_node: int
    target_node: int
    #: ``handover`` or ``split`` — how the GPT was mutated, hence how a
    #: rollback must undo it.
    mode: str = SPLIT
    phase: str = PREPARE
    #: Segments whose storage AND tree entry already switched to the
    #: target.  Zero means the registration can be undone outright.
    segments_switched: int = 0
    epoch: int | None = None
    detail: str = ""
    #: Master-WAL LSN of the PREPARE record (see SegmentMoveEntry).
    prepare_lsn: int | None = None
    #: Retries, resumes and re-shipped bytes of the range's closed
    #: segment moves (its open ones still carry their own).
    retries: int = 0
    resumes: int = 0
    bytes_reshipped: int = 0

    @property
    def is_open(self) -> bool:
        return self.phase in _OPEN_PHASES


class MoveJournal:
    """In-memory journal mirrored into the master's WAL (so its
    durability cost is modelled like any other logging).  A segment move
    is held only while it is open: closing it folds it into
    :meth:`stats`' counters and its range move's totals."""

    def __init__(self, wal: "LogManager | None" = None):
        self.wal = wal
        self._ids = itertools.count(1)
        #: Open segment moves by (segment, source, target), in open order.
        self._open: dict[tuple[int, int, int], SegmentMoveEntry] = {}
        self.range_moves: dict[int, RangeMoveEntry] = {}
        self._closed = dict.fromkeys(_CLOSED_COUNTERS, 0)
        #: Some move closed DONE after resuming from a chunk checkpoint
        #: with part, not all, of its bytes re-shipped.
        self.resumed_move_completed = False

    # -- WAL mirroring ----------------------------------------------------

    def _log(self, kind: str, payload: tuple) -> int | None:
        if self.wal is not None:
            lsn = self.wal.append(txn_id=0, kind=kind, payload=payload)
            # Duck-typed journals in tests may not return an LSN.
            return lsn if isinstance(lsn, int) else None
        return None

    # -- segment moves ----------------------------------------------------

    def open_segment_move(self, segment_id: int, source_node: int,
                          target_node: int, bytes_total: int,
                          chunk_bytes: int,
                          fence: tuple[str, int] | None = None,
                          epoch: int | None = None,
                          range_move_id: int | None = None
                          ) -> SegmentMoveEntry:
        key = (segment_id, source_node, target_node)
        if key in self._open:
            raise RuntimeError(f"segment move {key} is already open")
        entry = SegmentMoveEntry(
            move_id=next(self._ids), segment_id=segment_id,
            source_node=source_node, target_node=target_node,
            bytes_total=bytes_total, chunk_bytes=chunk_bytes,
            fence=fence, epoch=epoch, range_move_id=range_move_id,
        )
        self._open[key] = entry
        entry.prepare_lsn = self._log(
            "move", (entry.move_id, PREPARE, segment_id,
                     source_node, target_node, bytes_total)
        )
        return entry

    def resumable_segment_move(self, segment_id: int, source_node: int,
                               target_node: int) -> SegmentMoveEntry | None:
        """The open entry for the same segment and endpoints — what a
        restarted coordinator adopts instead of recopying."""
        return self._open.get((segment_id, source_node, target_node))

    @staticmethod
    def _set_phase(entry: SegmentMoveEntry | RangeMoveEntry, phase: str,
                   detail: str) -> None:
        if not entry.is_open:
            raise RuntimeError(f"move {entry.move_id} is closed ({entry.phase})")
        entry.phase = phase
        if detail:
            entry.detail = detail

    def advance(self, entry: SegmentMoveEntry, phase: str,
                detail: str = "") -> None:
        self._set_phase(entry, phase, detail)
        self._log("move", (entry.move_id, phase, entry.segment_id, detail))
        if entry.is_open:
            return
        del self._open[entry.segment_id, entry.source_node, entry.target_node]
        closed = self._closed
        closed["moves_total"] += 1
        resumed = entry.resumes > 0
        if phase == DONE:
            retried = resumed or entry.retries > 0
            closed["retried_moves" if retried else "first_try_moves"] += 1
            closed["resumed_moves"] += resumed
            self.resumed_move_completed |= (
                resumed and 0 < entry.bytes_reshipped < entry.bytes_total)
        closed["rolled_back_moves"] += phase == ABORTED
        closed["failed_moves"] += phase == FAILED
        self._fold(entry, entry.retries, entry.resumes, entry.bytes_shipped,
                   entry.bytes_reshipped)

    def _fold(self, entry: SegmentMoveEntry, retries: int, resumes: int,
              shipped: int, reshipped: int) -> None:
        """Add a closed entry's accounting to the closed counters and to
        its owning range move."""
        closed = self._closed
        closed["retries_total"] += retries
        closed["resumes_total"] += resumes
        closed["bytes_shipped"] += shipped
        closed["bytes_reshipped"] += reshipped
        owner = self.range_moves.get(entry.range_move_id)
        if owner is not None:
            owner.retries += retries
            owner.resumes += resumes
            owner.bytes_reshipped += reshipped

    def ack_chunk(self, entry: SegmentMoveEntry, nbytes: int) -> None:
        """Journal one acknowledged chunk — the resume checkpoint."""
        entry.chunks_acked += 1
        entry.bytes_shipped += nbytes
        self._log("move-chunk", (entry.move_id, entry.chunks_acked))
        if not entry.is_open:  # closed by failover mid-chunk
            self._fold(entry, 0, 0, nbytes, 0)

    def note_retry(self, entry: SegmentMoveEntry, reshipped: int) -> None:
        """Count one failed chunk attempt: a retry, a resume when a
        checkpoint exists, and the bytes that must be sent again."""
        resumes = 1 if entry.chunks_acked > 0 else 0
        entry.retries += 1
        entry.resumes += resumes
        entry.bytes_reshipped += reshipped
        if not entry.is_open:  # closed by failover mid-chunk
            self._fold(entry, 1, resumes, 0, reshipped)

    # -- range moves ------------------------------------------------------

    def open_range_move(self, table: str, source_partition_id: int,
                        target_partition_id: int, source_node: int,
                        target_node: int, mode: str,
                        epoch: int | None = None) -> RangeMoveEntry:
        entry = RangeMoveEntry(
            move_id=next(self._ids), table=table,
            source_partition_id=source_partition_id,
            target_partition_id=target_partition_id,
            source_node=source_node, target_node=target_node,
            mode=mode, epoch=epoch,
        )
        self.range_moves[entry.move_id] = entry
        entry.prepare_lsn = self._log(
            "range-move", (entry.move_id, PREPARE, table,
                           source_partition_id, target_partition_id,
                           source_node, target_node, mode)
        )
        return entry

    def advance_range(self, entry: RangeMoveEntry, phase: str,
                      detail: str = "") -> None:
        self._set_phase(entry, phase, detail)
        self._log("range-move", (entry.move_id, phase, entry.table, detail))

    def note_segment_switched(self, entry: RangeMoveEntry) -> None:
        entry.segments_switched += 1
        self._log("range-move-progress",
                  (entry.move_id, entry.segments_switched))

    # -- queries ----------------------------------------------------------

    def open_segment_moves(self) -> list[SegmentMoveEntry]:
        return list(self._open.values())

    def open_range_moves(self) -> list[RangeMoveEntry]:
        return [e for e in self.range_moves.values() if e.is_open]

    def oldest_open_move_lsn(self) -> int | None:
        """The PREPARE LSN of the oldest still-open move in the WAL the
        journal mirrors to, or None when no open move pins it.  The
        checkpoint manager must not recycle WAL records at or past an
        open move's journal trail — a crashed coordinator re-drives the
        move from exactly those records."""
        lsns = [e.prepare_lsn for e in self.open_segment_moves()
                if e.prepare_lsn is not None]
        lsns += [e.prepare_lsn for e in self.open_range_moves()
                 if e.prepare_lsn is not None]
        return min(lsns) if lsns else None

    def open_moves_involving(self, node_id: int
                             ) -> tuple[list[SegmentMoveEntry],
                                        list[RangeMoveEntry]]:
        segs = [e for e in self.open_segment_moves()
                if node_id in (e.source_node, e.target_node)]
        ranges = [e for e in self.open_range_moves()
                  if node_id in (e.source_node, e.target_node)]
        return segs, ranges

    # -- accounting -------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Cluster-wide move accounting, shaped like the client retry
        summary: first-try moves reported separately from moves that
        needed retries or a chunk-level resume."""
        stats = dict(self._closed)
        for entry in self._open.values():
            stats["moves_total"] += 1
            stats["retries_total"] += entry.retries
            stats["resumes_total"] += entry.resumes
            stats["bytes_shipped"] += entry.bytes_shipped
            stats["bytes_reshipped"] += entry.bytes_reshipped
        stats["open_moves"] = len(self._open)
        stats["open_range_moves"] = len(self.open_range_moves())
        return stats
