"""Smoke test for the read-scaling experiment: a shortened audited
run of both modes under the full fault schedule, plus the cross-mode
throughput-per-watt gate and same-seed determinism."""

import dataclasses

import pytest

from repro.experiments.read_scaling import compare, run_read_scaling
from tests.determinism.harness import READ_SCALING_SMOKE as SMOKE, result_of

pytestmark = pytest.mark.timeout(600)


def smoke_result(mode):
    """Both modes are the ``read_scaling`` family of the determinism
    harness: run once, also compared with its golden."""
    replica, primary = result_of("read_scaling")
    return {"replica": replica, "primary": primary}[mode]


def test_replica_mode_runs_clean_under_faults():
    result = smoke_result("replica")
    assert result.ok, result.violations
    assert "audit" in result.counters
    assert len([e for e in result.timeline if e.source == "fault"]) == 5
    # The tier actually carried traffic ...
    assert result.counters["read tier"]["reads_replica"] > 0
    assert result.counters["read tier"]["cache_hits"] > 0
    # ... and every quiesced checkpoint matched its recompute.
    run = result.counters["run"]
    assert run["view_checkpoints"] > 0
    assert result.view_checkpoints_matched == run["view_checkpoints"]


def test_primary_mode_runs_clean_under_faults():
    result = smoke_result("primary")
    assert result.ok, result.violations
    assert "read tier" not in result.counters
    assert result.view_checkpoints_matched == 0
    assert result.counters["run"]["reads_completed"] > 0


def test_replica_mode_beats_primary_per_joule():
    results = [smoke_result("replica"), smoke_result("primary")]
    assert compare(results).violations == []


def test_same_seed_same_story():
    config = dataclasses.replace(SMOKE, duration=30.0, audit=False,
                                 min_requests=2_000)
    a = run_read_scaling(config)
    b = run_read_scaling(config)
    assert a.counters == b.counters
    assert a.timeline == b.timeline
    assert a.completed == b.completed == a.counters["admission"]["completed"]
