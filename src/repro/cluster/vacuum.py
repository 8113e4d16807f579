"""Power-aware incremental vacuum: resumable version GC in chunks.

The ad-hoc vacuum daemon swept *every* segment of *every* partition on
a fixed cadence — fine for 60-second figures, pathological for
endurance runs where a sweep is O(live data) and lands regardless of
load.  The scheduler here keeps the same externally observable cadence
(one wakeup event per tick, so determinism goldens are untouched) but
structures the work:

* a *pass* enumerates the cluster's segments once; each tick visits
  queue entries and reclaims at most ``chunk_versions`` dead versions
  per segment, resuming where it left off next tick — vacuum work per
  wakeup is bounded no matter how much garbage accumulated;
* nodes whose recent CPU utilisation (a
  :class:`~repro.hardware.power.LoadGauge` window) exceeds
  ``load_threshold`` are skipped this tick and their segments deferred
  — GC runs on idle nodes, pauses under load, exactly the wimpy-node
  power policy of the paper's cluster (arXiv:1407.0386 measures whole
  diurnal cycles, where this is the difference between GC hiding in
  the valleys and GC stealing the peaks);
* the ``until`` bound is honoured by construction
  (:class:`~repro.sim.daemon.PeriodicDaemon`): no tick can ever land
  past ``until`` on a drained environment (the historical
  off-by-an-ulp bug).
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.hardware.power import LoadGauge, busy_nodes
from repro.sim.daemon import PeriodicDaemon
from repro.txn import mvcc

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.storage.segment import Segment


@dataclasses.dataclass(frozen=True)
class VacuumPolicy:
    """Throttling knobs.  The defaults reproduce the historical daemon
    exactly: full sweep every ``interval``, no chunking, no load
    awareness — the compat mode the pinned daemon tests run in."""

    #: Simulated seconds between wakeups.
    interval: float = 30.0
    #: Dead versions reclaimed per segment visit (None = all of them).
    chunk_versions: int | None = None
    #: Total versions reclaimed per wakeup across all segments
    #: (None = unbounded).
    max_reclaim_per_tick: int | None = None
    #: Mean CPU utilisation (0..1) over the last tick above which a
    #: node's segments are deferred to a later tick (None = never).
    load_threshold: float | None = None

    def __post_init__(self):
        if not self.interval > 0:
            raise ValueError(
                f"vacuum interval must be > 0, not {self.interval!r}")
        for name in ("chunk_versions", "max_reclaim_per_tick"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be None or >= 1, not {value!r}")
        if self.load_threshold is not None \
                and not 0 < self.load_threshold <= 1:
            raise ValueError(
                f"load_threshold must be None or in (0, 1], "
                f"not {self.load_threshold!r}"
            )


class VacuumScheduler(PeriodicDaemon):
    """Background version GC with a resumable per-segment work queue.

    Also the handle the workload layer hands out
    (:func:`repro.workload.start_vacuum_daemon`): ``process``,
    ``sweeps``, ``reclaimed``, ``stop()``, ``stopped`` keep their
    historical meaning — ``sweeps`` counts *completed passes* over the
    cluster, which in compat mode is one per tick.
    """

    def __init__(self, cluster: "Cluster",
                 policy: VacuumPolicy | None = None,
                 until: float | None = None):
        self.cluster = cluster
        self.policy = policy or VacuumPolicy()
        super().__init__(cluster.env, "vacuum", self.policy.interval, until)
        #: (node_id, partition_id, segment_id) keys still owed a visit
        #: in the current pass — object refs are re-resolved at visit
        #: time so segments that moved or died between ticks are safe.
        self._queue: collections.deque[tuple[int, int, int]] = \
            collections.deque()
        self._gauges: dict[int, LoadGauge] = {}
        # -- accounting ----------------------------------------------------
        self.sweeps = 0
        self.ticks = 0
        self.chunks = 0
        self.reclaimed = 0
        self.throttled_ticks = 0
        self.deferred_segments = 0

    # -- one wakeup --------------------------------------------------------

    def _tick(self) -> None:
        self.ticks += 1
        horizon = self.cluster.txns.oldest_active_begin_ts()
        if not self._queue:
            self._build_queue()
        busy = busy_nodes(self.cluster, self._gauges,
                          self.policy.load_threshold)
        budget = self.policy.max_reclaim_per_tick
        spent = 0
        deferred: list[tuple[int, int, int]] = []
        throttled = False
        for _ in range(len(self._queue)):
            if budget is not None and spent >= budget:
                break
            key = self._queue.popleft()
            if key[0] in busy:
                deferred.append(key)
                self.deferred_segments += 1
                throttled = True
                continue
            segment = self._resolve(key)
            if segment is None:
                continue
            chunk = self.policy.chunk_versions
            if budget is not None:
                remaining = budget - spent
                chunk = remaining if chunk is None else min(chunk, remaining)
            reclaimed, exhausted = mvcc.vacuum_chunk(segment, horizon, chunk)
            if reclaimed:
                self.chunks += 1
            self.reclaimed += reclaimed
            spent += reclaimed
            if not exhausted:
                deferred.append(key)
        self._queue.extend(deferred)
        if throttled:
            self.throttled_ticks += 1
        if not self._queue:
            self.sweeps += 1

    def _build_queue(self) -> None:
        for worker in self.cluster.active_workers():
            node_id = worker.node_id
            for partition in list(worker.partitions.values()):
                for segment_id in list(partition.segments):
                    self._queue.append(
                        (node_id, partition.partition_id, segment_id)
                    )

    def _resolve(self, key: tuple[int, int, int]) -> "Segment | None":
        node_id, partition_id, segment_id = key
        worker = self.cluster.worker(node_id)
        if not worker.is_active:
            return None
        partition = worker.partitions.get(partition_id)
        if partition is None:
            return None
        return partition.segments.get(segment_id)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "sweeps": self.sweeps,
            "ticks": self.ticks,
            "chunks": self.chunks,
            "reclaimed": self.reclaimed,
            "throttled_ticks": self.throttled_ticks,
            "deferred_segments": self.deferred_segments,
            "pending_segments": len(self._queue),
        }
