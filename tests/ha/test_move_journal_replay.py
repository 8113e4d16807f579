"""Failover replaying the move journal: half-done segment moves roll
back, interrupted range moves roll back or collapse onto the survivor,
and every resolution fences the stale mover out."""

import pytest

from repro.core import (
    LogicalPartitioning,
    PhysiologicalPartitioning,
    Rebalancer,
)
from repro.ha.failover import FailoverCoordinator
from repro.index import KeyRange
from repro.moves import ABORTED, FAILED, HANDOVER, MoveFailedError, RetryPolicy

from tests.moves.conftest import build_move_cluster, drive, first_segment


def patient_retry():
    return RetryPolicy(max_attempts=10, base_delay=0.5, multiplier=2.0,
                       max_delay=4.0, jitter=0.0)


class TestSegmentEntryReplay:
    def test_target_death_rolls_the_open_move_back(self):
        env, cluster, partition = build_move_cluster()
        cluster.moves.retry = patient_retry()
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)
        coordinator = FailoverCoordinator(cluster)
        outcome = {}

        def mover():
            try:
                yield from cluster.moves.transfer_segment(
                    segment, source, target
                )
            except MoveFailedError as exc:
                outcome["error"] = exc

        def failover():
            yield env.timeout(1.2)  # chunk 2 of 4 is on the wire
            target.machine.crash()
            yield from coordinator.node_failed(target.node_id)

        mover_proc = env.process(mover(), name="mover")
        env.run(until=env.process(failover(), name="failover"))
        env.run(until=mover_proc)

        assert isinstance(outcome.get("error"), MoveFailedError)
        journal = cluster.moves.journal
        assert journal.stats()["moves_total"] == 1
        assert journal.open_segment_moves() == []
        entry = outcome["error"].entry
        assert entry.phase == ABORTED
        assert "died" in entry.detail
        # The half-copied target extent is gone; the source still serves.
        assert not target.disk_space.holds(segment.segment_id)
        assert source.disk_space.holds(segment.segment_id)
        assert cluster.directory.location(segment.segment_id)[0] is source
        assert any(e.source == "failover" and e.kind == "move_rolled_back"
                   for e in cluster.timeline)


class TestRangeEntryReplay:
    def test_nothing_switched_rolls_the_registration_back(self):
        """Target dies before any segment switched: failover restores
        the exact pre-move world and the degraded rebalancer records
        the failure instead of crashing."""
        env, cluster, partition = build_move_cluster()
        cluster.moves.retry = patient_retry()
        target = cluster.worker(2)
        rebalancer = Rebalancer(cluster, PhysiologicalPartitioning())
        coordinator = FailoverCoordinator(cluster)

        def migration():
            yield from rebalancer.scale_out(["kv"], [1], [2], fraction=0.5)

        def failover():
            yield env.timeout(1.2)
            target.machine.crash()
            yield from coordinator.node_failed(target.node_id)

        migration_proc = env.process(migration(), name="migration")
        env.run(until=env.process(failover(), name="failover"))
        env.run(until=migration_proc)

        journal = cluster.moves.journal
        assert journal.open_range_moves() == []
        assert all(e.phase == ABORTED for e in journal.range_moves.values())
        assert len(rebalancer.failed_moves) == 1
        # Single pointer, back on the source, with everything readable.
        for _key_range, location in cluster.master.gpt.partitions("kv"):
            assert not location.is_moving
            assert location.node_id == 1
        missing = []

        def verify():
            txn = cluster.txns.begin()
            for i in range(120):
                row = yield from cluster.master.read("kv", i, txn)
                if row is None:
                    missing.append(i)
            yield from cluster.txns.commit(txn)

        env.run(until=env.process(verify(), name="verify"))
        assert missing == []


class TestCollapseMatrix:
    """Direct checks of the partially-switched resolutions — the
    failure matrix rows that need data already across the wire."""

    def rig(self):
        env, cluster, partition = build_move_cluster()
        gpt = cluster.master.gpt
        ((_key_range, location),) = gpt.partitions("kv")
        gpt.begin_move("kv", location.partition_id, 2)
        entry = cluster.moves.journal.open_range_move(
            "kv", location.partition_id, location.partition_id, 1, 2,
            HANDOVER,
        )
        entry.segments_switched = 2
        return env, cluster, location, entry

    def test_source_death_collapses_onto_target(self):
        env, cluster, location, entry = self.rig()
        epoch_before = location.epoch
        FailoverCoordinator(cluster)._resolve_range_entry(entry, 1)
        assert entry.phase == FAILED
        assert location.node_id == 2
        assert not location.is_moving
        assert location.epoch == epoch_before + 1

    def test_target_death_keeps_source_ownership(self):
        env, cluster, location, entry = self.rig()
        epoch_before = location.epoch
        FailoverCoordinator(cluster)._resolve_range_entry(entry, 2)
        assert entry.phase == FAILED
        assert location.node_id == 1
        assert not location.is_moving
        assert location.epoch == epoch_before + 1

    def test_both_ends_down_defers_resolution(self):
        env, cluster, location, entry = self.rig()
        cluster.worker(2).machine.crash()  # survivor of a source death
        FailoverCoordinator(cluster)._resolve_range_entry(entry, 1)
        assert entry.is_open  # left for the next failover round
        assert location.is_moving  # dual pointer intact until then


class TestNonJournaledMover:
    def test_target_death_collapses_a_record_mover_s_dual_pointer(self):
        """The record-at-a-time mover keeps no journal entry, so the
        journal replay finds nothing: the dual pointer it registered is
        collapsed onto the surviving source by the promotion loop."""
        env, cluster, partition = build_move_cluster(rows=200)
        source, target = cluster.worker(1), cluster.worker(2)
        coordinator = FailoverCoordinator(cluster)

        def failover():
            # The first of three batches has landed: mid-sweep.
            while not any(p.record_count
                          for p in target.partitions.values()):
                yield env.timeout(0.5)
            target.machine.crash()
            yield from coordinator.node_failed(target.node_id)

        env.process(LogicalPartitioning(pace_delay=1.0).move_range(
            cluster, partition, source, target, KeyRange(40, None)),
            name="mover")
        env.run(until=env.process(failover(), name="failover"))

        assert cluster.moves.journal.range_moves == {}
        locations = [loc for _r, loc in cluster.master.gpt.partitions("kv")]
        assert len(locations) == 2          # the split stays registered
        for location in locations:
            assert not location.is_moving
            assert location.node_id == source.node_id
        (resolved,) = [e for e in cluster.timeline
                       if e.source == "failover" and e.kind == "move_resolved"]
        assert resolved.node_id == source.node_id

    def test_record_mover_stops_shipping_to_a_dead_target(self):
        """Run to its end, the record mover whose target died mid-sweep
        fails its next batch with MoveFailedError naming the node; it
        writes nothing more into the dead target's partitions or WAL."""
        env, cluster, partition = build_move_cluster(rows=200)
        source, target = cluster.worker(1), cluster.worker(2)
        coordinator = FailoverCoordinator(cluster)
        after_failover = []

        def on_target():
            return (sum(p.record_count for p in target.partitions.values()),
                    len(target.wal.records))

        def failover():
            while not on_target()[0]:
                yield env.timeout(0.5)
            target.machine.crash()
            yield from coordinator.node_failed(target.node_id)
            after_failover.append(on_target())

        env.process(failover(), name="failover")
        with pytest.raises(Exception) as failed:
            drive(env, LogicalPartitioning(pace_delay=1.0).move_range(
                cluster, partition, source, target, KeyRange(40, None)))
        assert after_failover == [on_target()]
        assert failed.type is MoveFailedError
        assert f"target node {target.node_id} is down" in str(failed.value)
