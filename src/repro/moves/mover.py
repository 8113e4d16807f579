"""The crash-safe segment mover.

``MoveManager`` executes the journaled PREPARE -> COPY -> SWITCH ->
DONE state machine for one segment extent:

* the copy streams in chunks, and every chunk acknowledged by the
  target is a journaled checkpoint — an interrupted copy resumes from
  the last acknowledged chunk instead of byte 0;
* transient wire faults (severed link, crashed-but-restarting node)
  are retried per chunk with bounded exponential backoff and jitter;
* a per-move deadline bounds the total stall a move may absorb — on
  expiry the move rolls back cleanly: target extent evicted, journal
  entry closed, the directory untouched;
* the SWITCH is fenced by the global partition table's ownership
  epoch: a stale source that stalls through a failover and comes back
  after a replica was promoted finds the epoch advanced and its switch
  refused, so it can never clobber the promoted owner.

The mover deliberately knows nothing about partition trees, locks, or
schemes — those stay in :mod:`repro.core`; this module owns only the
storage transfer and its fault story.
"""

from __future__ import annotations

import typing

from repro.cluster.master import NodeDownError
from repro.hardware import specs
from repro.hardware.disk import DiskFailedError
from repro.hardware.network import LinkDownError
from repro.moves.journal import (
    ABORTED,
    COPY,
    DONE,
    FAILED,
    MoveJournal,
    PREPARE,
    RangeMoveEntry,
    SegmentMoveEntry,
    SWITCH,
)
from repro.moves.retry import RetryPolicy
from repro.storage.disk_space import OutOfDiskSpaceError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode
    from repro.storage.segment import Segment

#: Copy granularity: small enough to interleave with query I/O and to
#: make chunk-level resume meaningful, large enough to stay near
#: sequential bandwidth.
DEFAULT_CHUNK_BYTES = 2 * 1024 * 1024

#: Default bound on one segment move, stalls and retries included.
DEFAULT_MOVE_TIMEOUT = 900.0

#: Faults worth waiting out: the link may be restored, the node may
#: reboot.  Narrower than the clients' ``TransientError`` on purpose: a
#: failed disk is not in this set — its contents are gone.
TRANSIENT_ERRORS = (LinkDownError, NodeDownError)


def check_endpoints(source: "WorkerNode", target: "WorkerNode",
                    error: type[Exception] = NodeDownError) -> None:
    """Raise ``error`` naming whichever end of a move no longer serves —
    checked before every unit ships (a segment's chunk retries on a
    :class:`NodeDownError`; a record batch has no retry and fails)."""
    if not source.is_serving:
        raise error(f"move source node {source.node_id} is down")
    if not target.is_serving:
        raise error(f"move target node {target.node_id} is down")


class MoveFailedError(RuntimeError):
    """A segment move gave up after retries, a timeout, or a fatal
    fault, and was rolled back.  Policy code must degrade the step it
    was executing, not crash."""

    #: The failed range's partial ``MoveReport``, when the scheme that
    #: raised had one, and the reports of the chunks that completed
    #: before it (``migrate_fraction`` fills them in).
    report = None
    reports: typing.Sequence = ()

    def __init__(self, message: str, entry: SegmentMoveEntry | None = None):
        super().__init__(message)
        #: The closed journal entry of the segment move that failed.
        self.entry = entry


class MoveTimeoutError(MoveFailedError):
    """The per-move deadline expired."""


class EpochFencedError(MoveFailedError):
    """The governed partition's ownership epoch advanced while the
    move ran (failover promoted a new owner) — the switch was refused
    and the move rolled back."""


class MoveManager:
    """Cluster-wide owner of the move journal and the segment mover."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.env = cluster.env
        self.retry = RetryPolicy()
        self.move_timeout = DEFAULT_MOVE_TIMEOUT
        self.chunk_bytes = DEFAULT_CHUNK_BYTES
        self.journal = MoveJournal(wal=cluster.master.worker.wal)
        #: Scheme used to re-drive suspended range moves (set by the
        #: rebalancer); without one, open range moves wait for a driver.
        self.resume_scheme = None
        #: move_id -> Segment for open entries, so failover can evict a
        #: half-copied target extent without the mover process (the
        #: extent size is a per-partition property the journal payload
        #: alone cannot reconstruct).
        self._entry_segments: dict[int, "Segment"] = {}

    # -- epoch fencing ----------------------------------------------------

    def _current_epoch(self, fence: tuple[str, int] | None) -> int | None:
        if fence is None:
            return None
        table, partition_id = fence
        try:
            return self.cluster.master.gpt.epoch_of(table, partition_id)
        except KeyError:
            return None  # entry gone: fenced by definition

    def _fence_intact(self, entry: SegmentMoveEntry) -> bool:
        if entry.fence is None:
            return True
        return self._current_epoch(entry.fence) == entry.epoch

    # -- the state machine ------------------------------------------------

    def transfer_segment(self, segment: "Segment", source: "WorkerNode",
                         target: "WorkerNode",
                         fence: tuple[str, int] | None = None,
                         range_entry: RangeMoveEntry | None = None):
        """Generator: move ``segment``'s extent from ``source`` to
        ``target`` through the journaled state machine.  Returns the
        closed :class:`SegmentMoveEntry` (phase DONE).

        Raises :class:`MoveFailedError` (or a subclass) after rolling
        back; the caller's metadata is untouched in that case.
        """
        journal = self.journal
        env = self.env
        t0 = env.now
        deadline = t0 + self.move_timeout
        nbytes = max(segment.used_bytes, specs.PAGE_BYTES)
        source_disk = source.disk_space.disk_of(segment.segment_id)

        # PREPARE: adopt an interrupted move's checkpoint when one
        # exists (coordinator crash mid-copy), else journal a fresh
        # entry and reserve the target extent.
        entry = journal.resumable_segment_move(
            segment.segment_id, source.node_id, target.node_id
        )
        if entry is not None and target.disk_space.holds(segment.segment_id):
            target_disk = target.disk_space.disk_of(segment.segment_id)
            entry.resumes += 1
            entry.fence = fence
            entry.epoch = self._current_epoch(fence)
            if range_entry is not None:
                entry.range_move_id = range_entry.move_id
        else:
            if entry is not None:
                # Journal says COPY but the extent is gone (rolled back
                # by someone else): close the stale entry and restart.
                journal.advance(entry, ABORTED, "extent lost before resume")
            entry = journal.open_segment_move(
                segment.segment_id, source.node_id, target.node_id,
                nbytes, self.chunk_bytes, fence=fence,
                epoch=self._current_epoch(fence),
                range_move_id=(range_entry.move_id
                               if range_entry is not None else None),
            )
            try:
                target_disk = target.disk_space.place(segment)
            except OutOfDiskSpaceError as exc:
                journal.advance(entry, ABORTED, f"no target extent: {exc}")
                raise MoveFailedError(
                    f"segment {segment.segment_id}: cannot reserve target "
                    f"extent on node {target.node_id}", entry=entry
                ) from exc
            journal.advance(entry, COPY)
        self._entry_segments[entry.move_id] = segment

        total_chunks = -(-nbytes // self.chunk_bytes)  # ceil div

        # COPY: chunk loop from the last acknowledged checkpoint.
        attempt = 0
        fresh_stream = True  # first I/O after a (re)start pays access time
        while entry.chunks_acked < total_chunks:
            if not entry.is_open:
                # Failover replayed the journal and rolled this move
                # back while we were backing off; nothing to undo here.
                raise MoveFailedError(
                    f"segment {segment.segment_id}: move {entry.move_id} "
                    f"was closed by failover ({entry.detail})", entry=entry
                )
            if env.now >= deadline:
                self._rollback(entry, segment, target,
                               f"timed out after {env.now - t0:.1f}s")
                raise MoveTimeoutError(
                    f"segment {segment.segment_id}: move exceeded "
                    f"{self.move_timeout:.0f}s", entry=entry
                )
            offset = entry.chunks_acked * self.chunk_bytes
            chunk = min(self.chunk_bytes, nbytes - offset)
            shipped = False
            try:
                check_endpoints(source, target)
                shipped = True
                yield from source_disk.read(chunk, sequential=not fresh_stream)
                yield from self.cluster.network.transfer(
                    source.port, target.port, chunk
                )
                yield from target_disk.write(
                    chunk, sequential=not fresh_stream
                )
                # The checkpoint needs the target's ack — an endpoint
                # that died while the chunk was in flight never sent
                # one, so the chunk must be re-shipped.
                check_endpoints(source, target)
            except TRANSIENT_ERRORS as exc:
                journal.note_retry(entry, chunk if shipped else 0)
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    self._rollback(entry, segment, target,
                                   f"retries exhausted: {exc}")
                    raise MoveFailedError(
                        f"segment {segment.segment_id}: "
                        f"{self.retry.max_attempts} attempts failed ({exc})",
                        entry=entry,
                    ) from exc
                delay = self.retry.delay(attempt, env.rng)
                if env.now + delay >= deadline:
                    self._rollback(entry, segment, target,
                                   f"timed out backing off: {exc}")
                    raise MoveTimeoutError(
                        f"segment {segment.segment_id}: deadline reached "
                        f"while backing off ({exc})", entry=entry
                    ) from exc
                yield env.timeout(delay)
                fresh_stream = True
                continue
            except DiskFailedError as exc:
                self._rollback(entry, segment, target, f"disk failed: {exc}")
                raise MoveFailedError(
                    f"segment {segment.segment_id}: {exc}", entry=entry
                ) from exc
            attempt = 0
            fresh_stream = False
            journal.ack_chunk(entry, chunk)

        # SWITCH: flip the directory in one step, behind the fence.
        if not entry.is_open:
            raise MoveFailedError(
                f"segment {segment.segment_id}: move {entry.move_id} "
                f"was closed by failover ({entry.detail})", entry=entry
            )
        if not self._fence_intact(entry):
            self._rollback(entry, segment, target, "fenced: epoch advanced")
            raise EpochFencedError(
                f"segment {segment.segment_id}: partition "
                f"{entry.fence} was promoted while the move ran", entry=entry
            )
        if not target.is_serving:
            self._rollback(entry, segment, target, "target died pre-switch")
            raise MoveFailedError(
                f"segment {segment.segment_id}: target node "
                f"{target.node_id} not serving at switch", entry=entry
            )
        journal.advance(entry, SWITCH)
        self.cluster.directory.unregister(segment.segment_id)
        source.disk_space.evict(segment)
        self.cluster.directory.register(segment.segment_id, target, target_disk)
        journal.advance(entry, DONE)
        return entry

    def _rollback(self, entry: SegmentMoveEntry, segment: "Segment",
                  target: "WorkerNode", reason: str) -> None:
        """Undo an unswitched move: the target extent is evicted and
        the journal entry closed; the directory still points at the
        source, so no metadata repair is needed."""
        if target.disk_space.holds(segment.segment_id):
            target.disk_space.evict(segment)
        self.journal.advance(entry, ABORTED, reason)

    # -- crash recovery ----------------------------------------------------

    def rollback_segment_entry(self, entry: SegmentMoveEntry,
                               reason: str = "") -> None:
        """Failover-side rollback by journal entry alone (the mover
        process is gone): evict the half-copied target extent and close
        the entry.  The directory still points at the source, which is
        untouched."""
        target = self.cluster.worker(entry.target_node)
        segment = self._entry_segments.get(entry.move_id)
        if segment is not None and target.disk_space.holds(entry.segment_id):
            target.disk_space.evict(segment)
        self.journal.advance(entry, ABORTED, reason)

    def resume_open_range_moves(self):
        """Generator: re-drive every suspended range move whose
        endpoints serve again.  Requires :attr:`resume_scheme` (the
        rebalancer wires its scheme in); moves that cannot be driven
        yet stay open for a later round."""
        scheme = self.resume_scheme
        if scheme is None:
            return []
        resumed = []
        for entry in list(self.journal.open_range_moves()):
            source = self.cluster.worker(entry.source_node)
            target = self.cluster.worker(entry.target_node)
            if not (source.is_serving and target.is_serving):
                continue
            try:
                report = yield from scheme.resume_range_move(
                    self.cluster, entry)
            except MoveFailedError as exc:
                # Still unlucky: the entry stays open (or was rolled
                # back) — a later round may succeed.
                report = exc.report
            if report is not None:
                resumed.append(report)
        return resumed
