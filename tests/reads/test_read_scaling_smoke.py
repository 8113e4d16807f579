"""Smoke test for the read-scaling experiment: a shortened audited
run of both modes under the full fault schedule, plus the cross-mode
throughput-per-watt gate and same-seed determinism."""

import dataclasses

import pytest

from repro.experiments.read_scaling import (
    compare_read_scaling,
    run_read_scaling,
)
from tests.determinism.harness import READ_SCALING_SMOKE as SMOKE, result_of

pytestmark = pytest.mark.timeout(600)


def smoke_result(mode):
    """Both modes are the ``read_scaling`` family of the determinism
    harness: run once, also compared with its golden."""
    replica, primary = result_of("read_scaling")
    return {"replica": replica, "primary": primary}[mode]


def test_replica_mode_runs_clean_under_faults():
    result = smoke_result("replica")
    assert result.ok, result.violations + result.anomalies
    assert result.audited
    assert len(result.faults_injected) == 5
    # The tier actually carried traffic ...
    assert result.tier_stats["reads_replica"] > 0
    assert result.tier_stats["cache_hits"] > 0
    # ... and every quiesced checkpoint matched its recompute.
    assert result.view_checkpoints > 0
    assert result.view_checkpoints_matched == result.view_checkpoints


def test_primary_mode_runs_clean_under_faults():
    result = smoke_result("primary")
    assert result.ok, result.violations + result.anomalies
    assert result.tier_stats == {}
    assert result.reads_completed > 0


def test_replica_mode_beats_primary_per_joule():
    results = [smoke_result("replica"), smoke_result("primary")]
    assert compare_read_scaling(results) == []


def test_same_seed_same_story():
    config = dataclasses.replace(SMOKE, duration=30.0, audit=False,
                                 min_requests=2_000)
    a = run_read_scaling(config)
    b = run_read_scaling(config)
    assert a.summary_row() == b.summary_row()
    assert a.tier_stats == b.tier_stats
    assert a.admission == b.admission
