"""Determinism gate for the kernel fast paths.

The goldens under ``golden/`` were captured on the pre-optimization
kernel (heap-only event loop, per-page latch Resources, O(n) victim
scan).  These tests re-run the same seeded experiments on the current
kernel and require bit-identical fingerprints: simulated end time,
commit counts, metrics tables, and a ``(time, events_processed)``
checkpoint trace.  A fast path that changed anything the virtual clock
can see fails here.
"""

import pytest

from tests.determinism.harness import (
    chaos_fingerprint,
    fig6_fingerprint,
    load_golden,
)


@pytest.fixture(scope="module")
def fig6_fp():
    return fig6_fingerprint()


@pytest.fixture(scope="module")
def chaos_fp():
    return chaos_fingerprint()


class TestFig6SmallGolden:
    def test_checkpoint_trace_matches_pre_optimization_order(self, fig6_fp):
        golden = load_golden("fig6_small")
        assert fig6_fp["checkpoints"] == golden["checkpoints"]

    def test_clock_and_event_totals(self, fig6_fp):
        golden = load_golden("fig6_small")
        assert fig6_fp["end_time"] == golden["end_time"]
        assert fig6_fp["events_processed"] == golden["events_processed"]
        assert fig6_fp["migration_seconds"] == golden["migration_seconds"]

    def test_model_visible_metrics(self, fig6_fp):
        golden = load_golden("fig6_small")
        for key in ("total_completed", "total_failed", "conflicts",
                    "bytes_moved", "records_moved",
                    "breakdown_normal", "breakdown_rebalancing"):
            assert fig6_fp[key] == golden[key], key

    def test_rendered_table_identical(self, fig6_fp):
        assert fig6_fp["table"] == load_golden("fig6_small")["table"]

    def test_repeatable_within_process(self, fig6_fp):
        assert fig6_fingerprint() == fig6_fp


class TestChaosSeedGolden:
    def test_checkpoint_trace_matches_pre_optimization_order(self, chaos_fp):
        golden = load_golden("chaos_seed0")
        assert chaos_fp["checkpoints"] == golden["checkpoints"]

    def test_full_fingerprint(self, chaos_fp):
        assert chaos_fp == load_golden("chaos_seed0")

    def test_repeatable_within_process(self, chaos_fp):
        assert chaos_fingerprint() == chaos_fp
