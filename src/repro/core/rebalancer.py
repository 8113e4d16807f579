"""The master-side rebalancer: scale-out/scale-in executor and helper
protocol.

Executes the actions of the paper's dynamic-reorganisation loop
(Sect. 3.4): scale out (power nodes on and repartition towards them) or
scale in (quiesce nodes, pull their data back, power them off).  The
monitor -> threshold -> act loop that decides *when* is
:class:`repro.traffic.autoscaler.Autoscaler`.  Also implements the
Fig. 8 helper protocol: "we used the helper nodes for log shipping and
provision of additional buffer space using rDMA".
"""

from __future__ import annotations

import typing

from repro.core.migration import PartitioningScheme
from repro.core.schemes import MoveReport
from repro.moves import MoveFailedError
from repro.storage.buffer import RemoteBufferExtension
from repro.txn.wal import LogShippingSink

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.worker import WorkerNode


class HelperProtocol:
    """Temporarily recruit standby nodes to absorb rebalancing load."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self._engagements: list[tuple["WorkerNode", "WorkerNode"]] = []

    def engage(self, stressed: typing.Sequence["WorkerNode"],
               helper_ids: typing.Sequence[int],
               remote_buffer_pages: int = 4096):
        """Generator: boot helpers and attach them to stressed nodes.

        Each stressed node gets one helper (round-robin) providing log
        shipping and an rDMA buffer extension.
        """
        helpers: list["WorkerNode"] = []
        for node_id in helper_ids:
            worker = self.cluster.worker(node_id)
            if not worker.is_active:
                yield from self.cluster.power_on(node_id)
            helpers.append(worker)
        if not helpers:
            return
        for i, worker in enumerate(stressed):
            helper = helpers[i % len(helpers)]
            worker.wal.ship_to(LogShippingSink(
                self.cluster.network, worker.port, helper.port,
                helper.log_disk,
            ))
            worker.buffer.remote_extension = RemoteBufferExtension(
                self.cluster.env, self.cluster.network,
                worker.port, helper.port, remote_buffer_pages,
            )
            self._engagements.append((worker, helper))

    def disengage(self):
        """Generator: detach helpers, drain remote buffers, power off."""
        helpers: set["WorkerNode"] = set()
        for worker, helper in self._engagements:
            worker.wal.ship_locally()
            if worker.buffer.remote_extension is not None:
                yield from worker.buffer.flush_all()
                worker.buffer.remote_extension = None
            helpers.add(helper)
        self._engagements.clear()
        for helper in helpers:
            if helper.is_active and helper.disk_space.segment_count() == 0:
                yield from self.cluster.power_off(helper.node_id)


class Rebalancer:
    """Executes repartitioning decisions on a cluster."""

    def __init__(self, cluster: "Cluster", scheme: PartitioningScheme):
        self.cluster = cluster
        self.scheme = scheme
        self.helper_protocol = HelperProtocol(cluster)
        self.reports: list[MoveReport] = []
        #: ``(sim_time, table, source_node, error)`` for every move the
        #: journal-backed mover gave up on — the step degraded instead
        #: of crashing the caller's loop.
        self.failed_moves: list[tuple[float, str, int, str]] = []
        self.scale_out_count = 0
        self.scale_in_count = 0
        # Suspended range moves are re-driven through this scheme.
        cluster.moves.resume_scheme = scheme

    def _migrate(self, table: str, source: "WorkerNode",
                 targets: typing.Sequence["WorkerNode"], fraction: float):
        """Generator: one ``migrate_fraction`` step; returns its reports.
        A :class:`MoveFailedError` degrades the step — the failed span
        was rolled back (or suspended), completed ones stay moved, and a
        resume round or the next autoscaler tick picks it up."""
        try:
            return (yield from self.scheme.migrate_fraction(
                self.cluster, table, source, targets, fraction,
            ))
        except MoveFailedError as exc:
            self.failed_moves.append(
                (self.cluster.env.now, table, source.node_id, str(exc))
            )
            return exc.reports

    def scale_out(self, tables: typing.Sequence[str],
                  source_ids: typing.Sequence[int],
                  target_ids: typing.Sequence[int],
                  fraction: float = 0.5,
                  helpers: typing.Sequence[int] = ()):
        """Generator: the Fig. 6/8 protocol — power up targets (and
        optional helpers), migrate ``fraction`` of each table from the
        sources, then stand the helpers down."""
        sources = [self.cluster.worker(i) for i in source_ids]
        targets = []
        for node_id in target_ids:
            worker = self.cluster.worker(node_id)
            if not worker.is_active:
                yield from self.cluster.power_on(node_id)
            targets.append(worker)
        if helpers:
            yield from self.helper_protocol.engage(sources, helpers)
        try:
            for table in tables:
                for source in sources:
                    self.reports.extend((yield from self._migrate(
                        table, source, targets, fraction)))
        finally:
            if helpers:
                yield from self.helper_protocol.disengage()
        self.scale_out_count += 1
        return self.reports

    def scale_in(self, tables: str | typing.Sequence[str], victim_id: int,
                 receiver_id: int, power_off: bool = True):
        """Generator: quiesce ``victim`` — move all its partitions of
        ``tables`` to ``receiver`` and (optionally) power it off.

        "a scale-in protocol is initiated, which quiesces the involved
        nodes from query processing and shifts their data partitions to
        nodes currently having sufficient processing capacity."
        """
        if isinstance(tables, str):
            tables = [tables]
        victim = self.cluster.worker(victim_id)
        receiver = self.cluster.worker(receiver_id)
        all_reports = []
        for table in tables:
            # Quiescing is best-effort under faults: the victim simply
            # keeps what could not move (the power-off guard below
            # already refuses while data remains).
            all_reports.extend((yield from self._migrate(
                table, victim, [receiver], 1.0)))
        self.reports.extend(all_reports)
        if power_off and victim.disk_space.segment_count() == 0:
            yield from self.cluster.power_off(victim_id)
        self.scale_in_count += 1
        return all_reports

    def resume_interrupted(self):
        """Generator: re-drive every suspended range move in the move
        journal whose endpoints serve again (crash-recovery for the
        repartitioning itself).  Returns the resumed reports."""
        resumed = yield from self.cluster.moves.resume_open_range_moves()
        self.reports.extend(resumed)
        return resumed
