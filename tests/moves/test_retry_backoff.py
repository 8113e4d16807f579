"""RetryPolicy math, and the mover's behaviour under transient wire
faults: retry-until-healed, retries-exhausted rollback, and the
per-move deadline."""

import random

import pytest

from repro.moves import (
    ABORTED,
    DONE,
    MoveFailedError,
    MoveTimeoutError,
    RetryPolicy,
)

from tests.moves.conftest import drive, first_segment


class TestRetryPolicy:
    def test_rejects_nonsense_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=5.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0,
                             max_delay=8.0, jitter=0.0)
        rng = random.Random(0)
        assert [policy.delay(a, rng) for a in (1, 2, 3, 4, 5, 6)] == \
            [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0,
                             max_delay=30.0, jitter=0.5)
        rng = random.Random(7)
        for attempt in range(1, 6):
            raw = min(1.0 * 2.0 ** (attempt - 1), 30.0)
            for _ in range(20):
                delay = policy.delay(attempt, rng)
                assert raw * 0.5 <= delay <= raw

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0, random.Random(0))


class TestMoverRetries:
    def test_transient_outage_is_retried_to_completion(self, move_cluster):
        env, cluster, partition = move_cluster
        cluster.moves.retry = RetryPolicy(max_attempts=8, base_delay=0.25,
                                          multiplier=2.0, max_delay=4.0,
                                          jitter=0.0)
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)

        def outage():
            yield env.timeout(0.001)
            target.port.sever()
            yield env.timeout(1.5)
            target.port.restore()

        env.process(outage(), name="outage")
        entry = drive(env, cluster.moves.transfer_segment(
            segment, source, target
        ))
        assert entry.phase == DONE
        assert entry.retries > 0
        assert cluster.directory.location(segment.segment_id)[0] is target
        assert not source.disk_space.holds(segment.segment_id)
        assert target.disk_space.holds(segment.segment_id)

    def test_exhausted_retries_roll_the_move_back(self, move_cluster):
        env, cluster, partition = move_cluster
        cluster.moves.retry = RetryPolicy(max_attempts=3, base_delay=0.1,
                                          multiplier=2.0, max_delay=1.0,
                                          jitter=0.0)
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)
        target.port.sever()  # and never restored

        with pytest.raises(MoveFailedError) as failed:
            drive(env, cluster.moves.transfer_segment(
                segment, source, target
            ))
        assert failed.value.entry.phase == ABORTED
        # Rollback left the world exactly as before the move.
        assert cluster.directory.location(segment.segment_id)[0] is source
        assert source.disk_space.holds(segment.segment_id)
        assert not target.disk_space.holds(segment.segment_id)

    def test_deadline_bounds_the_total_stall(self, move_cluster):
        env, cluster, partition = move_cluster
        cluster.moves.retry = RetryPolicy(max_attempts=50, base_delay=0.5,
                                          multiplier=2.0, max_delay=8.0,
                                          jitter=0.0)
        cluster.moves.move_timeout = 2.0
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)
        target.port.sever()

        with pytest.raises(MoveTimeoutError):
            drive(env, cluster.moves.transfer_segment(
                segment, source, target
            ))
        assert env.now <= 3.0  # gave up near the deadline, not after 50 tries
        assert source.disk_space.holds(segment.segment_id)
        assert not target.disk_space.holds(segment.segment_id)

    def test_resumed_chunks_are_not_reshipped(self, move_cluster):
        """A fault after some acked chunks resumes from the checkpoint:
        total shipped bytes stay below two full payloads."""
        env, cluster, partition = move_cluster
        cluster.moves.retry = RetryPolicy(max_attempts=8, base_delay=0.25,
                                          multiplier=2.0, max_delay=4.0,
                                          jitter=0.0)
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)

        def outage():
            # Strike mid-copy: at ~0.5 s/chunk side, chunk 1 is acked
            # around t=1.0 and chunk 2 is on the wire at t=1.2.
            yield env.timeout(1.2)
            target.port.sever()
            yield env.timeout(1.2)
            target.port.restore()

        env.process(outage(), name="outage")
        entry = drive(env, cluster.moves.transfer_segment(
            segment, source, target
        ))
        assert entry.phase == DONE
        assert entry.resumes > 0
        assert entry.chunks_acked * entry.chunk_bytes >= entry.bytes_total
        assert entry.bytes_shipped < 2 * entry.bytes_total
