"""History-based consistency auditing (Jepsen-style, offline).

Record every transaction's operations during a run
(:mod:`repro.audit.history`), then prove isolation held
(:mod:`repro.audit.checkers`): Adya anomaly classes, snapshot-read
consistency, replica convergence, partition-table coverage, and the
read-tier properties (replica staleness bounds, cache coherence,
materialized-view checkpoint equivalence), and that no request's cost
breakdown charges a stall twice.
"""

from repro.audit.checkers import (
    Anomaly,
    AuditReport,
    History,
    audit_history,
    check_aborted_reads,
    check_cache_coherence,
    check_cost_conservation,
    check_intermediate_reads,
    check_lost_updates,
    check_partition_coverage,
    check_replica_convergence,
    check_snapshot_reads,
    check_staleness_bounds,
    check_view_checkpoints,
    check_write_cycles,
)
from repro.audit.history import (
    CoverageCheckpoint,
    CoverageEntry,
    HistoryRecorder,
    Op,
    ViewCheckpoint,
)

__all__ = [
    "Anomaly",
    "AuditReport",
    "CoverageCheckpoint",
    "CoverageEntry",
    "History",
    "HistoryRecorder",
    "Op",
    "ViewCheckpoint",
    "audit_history",
    "check_aborted_reads",
    "check_cache_coherence",
    "check_cost_conservation",
    "check_intermediate_reads",
    "check_lost_updates",
    "check_partition_coverage",
    "check_replica_convergence",
    "check_snapshot_reads",
    "check_staleness_bounds",
    "check_view_checkpoints",
    "check_write_cycles",
]
