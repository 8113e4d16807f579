"""Identity gate: bit-identical simulated behaviour, family by family.

Every entry of ``harness.FAMILIES`` — the quick cells of the paper's
figures and the smoke-scale run of each sweep, runs tier-1 makes
anyway — is compared with its committed golden: the rendered report
and, per kernel the run built, the final clock and the number of events
processed.  ``fig6_small`` and ``chaos_seed0`` additionally pin a
``(time, events_processed)`` trace sampled every five simulated seconds
(captured before the kernel's fast paths existed and identical until
PR 24 stopped sending uncontended grants through the kernel, when every
golden was re-captured once), which says *when* a run first left the
recorded order.  A mismatch here means the change moved simulated
behaviour: either that is the point of the PR and the goldens are
re-captured with the diff explained, or it is a bug.
"""

import pytest

from tests.determinism.harness import (
    FAMILIES,
    chaos_fingerprint,
    fig6_fingerprint,
    fingerprint,
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


@pytest.mark.timeout(600)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_matches_its_golden(family):
    assert fingerprint(family) == load_golden(family)
