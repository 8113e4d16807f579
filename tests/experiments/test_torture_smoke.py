"""Torture harness smoke: the quick configuration survives the full
gray-fault mix with every gate green, audits clean, and replays
bit-identically per seed."""

import dataclasses

import pytest

from repro.experiments.torture import (
    TortureConfig,
    quick_torture_config,
    render_torture,
    run_torture,
)
from tests.determinism.harness import result_of

# Consistent with tier-1's global --timeout=600.
pytestmark = pytest.mark.timeout(600)


class TestTortureSmoke:
    def test_quick_run_holds_every_gate(self):
        # The ``torture`` family: also compared with its golden.
        result = result_of("torture")
        assert result.ok, render_torture([result])
        assert result.lost_commits == 0
        assert result.unresolved == []
        assert result.torn_txns_committed == 0
        # The schedule actually injected every gray-fault kind ...
        assert result.corruptions_injected >= 1
        assert result.committed_orders > 100
        # ... the detector flagged the limping node before (or absent)
        # an SLO breach ...
        assert result.detection_ok
        assert result.gray_suspects >= 1
        assert result.gray_quarantines >= 1
        assert result.gray_drains >= 1
        # ... and every injected corruption was surfaced through a
        # typed integrity path, never silently read.
        assert result.integrity_errors_surfaced + result.promotions >= 1
        rendered = render_torture([result])
        assert "UNRESOLVED" not in rendered
        assert "scrub summary" in rendered
        assert "gray-failure detector" in rendered

    def test_same_seed_same_fingerprint(self):
        a = run_torture(quick_torture_config(), seed=2)
        b = run_torture(quick_torture_config(), seed=2)
        assert a.ok and b.ok
        assert a.corruptions_injected >= 1
        assert a.fingerprint == b.fingerprint
        assert a.committed_orders == b.committed_orders
        assert a.scrub_stats == b.scrub_stats
        assert a.gray_stats == b.gray_stats

    def test_distinct_seeds_distinct_schedules(self):
        a = result_of("torture")
        b = run_torture(quick_torture_config(), seed=1)
        assert b.ok and b.corruptions_injected >= 1
        assert a.fingerprint != b.fingerprint

    def test_audit_mode_is_clean(self):
        config = dataclasses.replace(quick_torture_config(), audit=True)
        result = run_torture(config, seed=0)
        assert result.ok, result.anomalies
        assert result.audited
        assert result.anomalies == []
        assert result.history_stats.get("ops_recorded", 0) > 0

    def test_detection_gate_fails_when_detector_is_deaf(self):
        # Thresholds nothing can cross: the limping node never gets
        # flagged, so the detection gate must report the miss.
        config = dataclasses.replace(
            quick_torture_config(),
            score_threshold=1e9, clear_threshold=1.0,
        )
        result = run_torture(config, seed=0)
        assert result.limping_flagged_after is None
        assert not result.detection_ok
        assert not result.ok
        assert "missed the limping node" in render_torture([result])
