"""Crash-safe, resumable segment moves (journal + retry + fencing).

The paper assumes repartitioning survives the faults it is meant to
heal; this package supplies that fault story for the simulated
cluster: a durable move journal (:mod:`repro.moves.journal`), bounded
retry with backoff (:mod:`repro.moves.retry`), and the journaled
segment mover with epoch fencing (:mod:`repro.moves.mover`).
"""

from repro.moves.journal import (
    ABORTED,
    COPY,
    DONE,
    FAILED,
    HANDOVER,
    MoveJournal,
    PREPARE,
    RangeMoveEntry,
    SegmentMoveEntry,
    SPLIT,
    SWITCH,
)
from repro.moves.mover import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_MOVE_TIMEOUT,
    EpochFencedError,
    MoveFailedError,
    MoveManager,
    MoveTimeoutError,
    TRANSIENT_ERRORS,
    check_endpoints,
)
from repro.moves.retry import RetryPolicy

__all__ = [
    "ABORTED",
    "COPY",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_MOVE_TIMEOUT",
    "DONE",
    "EpochFencedError",
    "FAILED",
    "HANDOVER",
    "MoveFailedError",
    "MoveJournal",
    "MoveManager",
    "MoveTimeoutError",
    "PREPARE",
    "RangeMoveEntry",
    "RetryPolicy",
    "SPLIT",
    "SWITCH",
    "SegmentMoveEntry",
    "TRANSIENT_ERRORS",
    "check_endpoints",
]
