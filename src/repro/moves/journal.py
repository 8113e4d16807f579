"""Durable move journal: the crash-safety record of repartitioning.

Every segment move runs through a four-phase state machine

    PREPARE -> COPY -> SWITCH -> DONE

with two terminal failure phases, ``ABORTED`` (rolled back cleanly)
and ``FAILED`` (resolved by failover after a node death).  Each phase
transition — and each acknowledged copy chunk — is journaled through
the master's WAL, so a crash of the source, the target, or the
coordinator always leaves enough state behind to either resume the
move from the last acknowledged chunk or roll it back without
orphaning the target extent or leaving the global partition table
dual-pointed forever.

The paper's protocol updates the master first ("when repartitioning
starts, the master is updated first, keeping pointers to both, the old
and new node", Sect. 4.3); the journal extends that idea from routing
metadata to the full fault story the paper assumes but never spells
out.

Range moves (the ownership-transferring schemes move a whole key range
of segments under one registration) get their own entries so failover
can tell "nothing switched yet — undo the registration" apart from
"half the segments already serve on the target".
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

    @property
    def is_open(self) -> bool:
        return self.phase in _OPEN_PHASES


class MoveJournal:
    """In-memory journal mirrored into the master's WAL.

    The in-memory dicts are the authority the running simulation reads;
    the WAL records carry the same payloads so the journal's durability
    cost (log volume, flush piggybacking) is modelled like any other
    logging.
    """

    def __init__(self, wal: "LogManager | None" = None):
        self.wal = wal
        self._ids = itertools.count(1)
        self.segment_moves: dict[int, SegmentMoveEntry] = {}
        self.range_moves: dict[int, RangeMoveEntry] = {}

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
        entry = SegmentMoveEntry(
            move_id=next(self._ids), segment_id=segment_id,
            source_node=source_node, target_node=target_node,
            bytes_total=bytes_total, chunk_bytes=chunk_bytes,
            fence=fence, epoch=epoch, range_move_id=range_move_id,
        )
        self.segment_moves[entry.move_id] = entry
        entry.prepare_lsn = self._log(
            "move", (entry.move_id, PREPARE, segment_id,
                     source_node, target_node, bytes_total)
        )
        return entry

    def resumable_segment_move(self, segment_id: int, source_node: int,
                               target_node: int) -> SegmentMoveEntry | None:
        """An open COPY-phase entry for the same segment and endpoints —
        what a restarted coordinator adopts instead of recopying."""
        for entry in self.segment_moves.values():
            if (entry.is_open and entry.segment_id == segment_id
                    and entry.source_node == source_node
                    and entry.target_node == target_node):
                return entry
        return None

    def advance(self, entry: SegmentMoveEntry, phase: str,
                detail: str = "") -> None:
        if not entry.is_open:
            raise RuntimeError(
                f"move {entry.move_id} is closed ({entry.phase})"
            )
        entry.phase = phase
        if detail:
            entry.detail = detail
        self._log("move", (entry.move_id, phase, entry.segment_id, detail))

    def ack_chunk(self, entry: SegmentMoveEntry, nbytes: int) -> None:
        """Journal one acknowledged chunk — the resume checkpoint."""
        entry.chunks_acked += 1
        entry.bytes_shipped += nbytes
        self._log("move-chunk", (entry.move_id, entry.chunks_acked))

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
        if not entry.is_open:
            raise RuntimeError(
                f"range move {entry.move_id} is closed ({entry.phase})"
            )
        entry.phase = phase
        if detail:
            entry.detail = detail
        self._log("range-move", (entry.move_id, phase, entry.table, detail))

    def note_segment_switched(self, entry: RangeMoveEntry) -> None:
        entry.segments_switched += 1
        self._log("range-move-progress",
                  (entry.move_id, entry.segments_switched))

    # -- queries ----------------------------------------------------------

    def open_segment_moves(self) -> list[SegmentMoveEntry]:
        return [e for e in self.segment_moves.values() if e.is_open]

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

    def segment_moves_of_range(self, range_move_id: int
                               ) -> list[SegmentMoveEntry]:
        return [e for e in self.segment_moves.values()
                if e.range_move_id == range_move_id]

    # -- accounting -------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Cluster-wide move accounting, shaped like the client retry
        summary: first-try moves reported separately from moves that
        needed retries or a chunk-level resume."""
        closed = [e for e in self.segment_moves.values() if not e.is_open]
        done = [e for e in closed if e.phase == DONE]
        return {
            "moves_total": len(self.segment_moves),
            "first_try_moves": sum(
                1 for e in done if e.retries == 0 and e.resumes == 0
            ),
            "retried_moves": sum(
                1 for e in done if e.retries > 0 or e.resumes > 0
            ),
            "resumed_moves": sum(1 for e in done if e.resumes > 0),
            "rolled_back_moves": sum(
                1 for e in closed if e.phase == ABORTED
            ),
            "failed_moves": sum(1 for e in closed if e.phase == FAILED),
            "retries_total": sum(e.retries for e in self.segment_moves.values()),
            "resumes_total": sum(e.resumes for e in self.segment_moves.values()),
            "bytes_shipped": sum(
                e.bytes_shipped for e in self.segment_moves.values()
            ),
            "bytes_reshipped": sum(
                e.bytes_reshipped for e in self.segment_moves.values()
            ),
            "open_moves": len(self.open_segment_moves()),
            "open_range_moves": len(self.open_range_moves()),
        }
