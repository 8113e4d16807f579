"""Regressions for the crash-safe move path: the flush-under-pin of
``BufferPool.write_back`` that precedes a segment's copy, and adoption
of an interrupted move's checkpoint."""

from repro.experiments.chaos_moves import ChaosConfig, run_chaos
from repro.moves import COPY, DONE

from tests.moves.conftest import build_move_cluster, drive, first_segment


class TestFlushUnderPin:
    def test_pinned_dirty_frames_are_flushed_too(self):
        """A pin means "someone holds the frame", not "withhold the
        bytes": flush must write back pinned dirty frames, or the
        copied extent ships a stale image."""
        env, cluster, partition = build_move_cluster()
        worker = cluster.worker(1)
        segment = first_segment(partition)
        page = segment.pages[0]
        page_id = page.page_id

        def dirty_and_pin():
            yield from worker.fetch_page(page)
            worker.unpin_page(page, dirty=True)
            yield from worker.fetch_page(page)  # re-pin, still dirty

        env.run(until=env.process(dirty_and_pin(), name="pinner"))
        frame = worker.buffer._frames[page_id]
        assert frame.pins == 1 and frame.dirty

        io_before = sum(d.io_count for d in worker.disk_space.disks)
        drive(env, worker.buffer.write_back(p.page_id for p in segment.pages),
              name="flusher")
        io_after = sum(d.io_count for d in worker.disk_space.disks)

        assert not frame.dirty, "pinned dirty frame was skipped"
        assert frame.pins == 1, "flush must not steal the pin"
        assert io_after > io_before, "no write-back was issued"


class TestCheckpointAdoption:
    def test_restarted_coordinator_adopts_the_open_entry(self):
        """A coordinator crash leaves an open COPY entry and a
        half-filled target extent; the re-driven move must continue
        from the journaled chunk checkpoint, not restart from byte 0."""
        env, cluster, partition = build_move_cluster()
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)
        journal = cluster.moves.journal

        # Synthesize the post-crash state the journal would hold: the
        # entry advanced into COPY with two chunks acknowledged, the
        # target extent reserved, and no mover process alive.
        nbytes = segment.used_bytes
        orphan = journal.open_segment_move(
            segment.segment_id, source.node_id, target.node_id,
            nbytes, cluster.moves.chunk_bytes,
        )
        journal.advance(orphan, COPY)
        target.disk_space.place(segment)
        orphan.chunks_acked = 2
        orphan.bytes_shipped = 2 * cluster.moves.chunk_bytes
        t0 = env.now

        entry = drive(env, cluster.moves.transfer_segment(
            segment, source, target
        ))
        assert entry is orphan, "fresh entry opened instead of adopting"
        assert entry.phase == DONE
        assert entry.resumes == 1
        assert entry.chunks_acked * entry.chunk_bytes >= entry.bytes_total
        assert cluster.directory.location(segment.segment_id)[0] is target
        # Only the unacked remainder crossed the wire: two of four
        # chunks, at ~1 s each, instead of the full extent.
        assert env.now - t0 < 3.0

    def test_stale_entry_without_extent_restarts_clean(self):
        """Open entry but the target extent is gone (rolled back by
        failover): the mover closes the stale entry and starts fresh."""
        env, cluster, partition = build_move_cluster()
        source, target = cluster.worker(1), cluster.worker(2)
        segment = first_segment(partition)
        journal = cluster.moves.journal
        stale = journal.open_segment_move(
            segment.segment_id, source.node_id, target.node_id,
            segment.used_bytes, cluster.moves.chunk_bytes,
        )
        journal.advance(stale, COPY)
        stale.chunks_acked = 3  # checkpoint, but no extent to resume into

        entry = drive(env, cluster.moves.transfer_segment(
            segment, source, target
        ))
        assert entry is not stale
        assert not stale.is_open
        assert entry.phase == DONE
        assert entry.resumes == 0
        assert cluster.directory.location(segment.segment_id)[0] is target

    def test_the_mover_never_opens_a_second_entry_for_an_open_triple(self):
        """The journal keys open moves by (segment, source, target): on
        schedules with retries, chunk resumes and a rollback, every
        entry the mover opens is for a triple with nothing open."""
        open_before = []

        def instrument(env, cluster):
            journal = cluster.moves.journal
            open_segment_move = journal.open_segment_move

            def recording(segment_id, source, target, *args, **kwargs):
                open_before.append(journal.resumable_segment_move(
                    segment_id, source, target))
                return open_segment_move(segment_id, source, target,
                                         *args, **kwargs)

            journal.open_segment_move = recording

        for seed in range(4):
            assert run_chaos(ChaosConfig(seed=seed), instrument=instrument).ok
        assert len(open_before) > 4
        assert open_before == [None] * len(open_before)
