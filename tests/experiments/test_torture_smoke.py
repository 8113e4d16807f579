"""Torture harness smoke: the quick configuration survives the full
gray-fault mix with every gate green, audits clean, and replays
bit-identically per seed."""

import copy
import dataclasses

import pytest

from repro.experiments import harness
from repro.experiments.torture import (
    CLAIMS,
    quick_torture_config,
    rerun_gate,
    run_torture,
)
from tests.determinism.harness import result_of

# Consistent with tier-1's global --timeout=600.
pytestmark = pytest.mark.timeout(600)


class TestTortureSmoke:
    def test_quick_run_holds_every_gate(self):
        # The ``torture`` family: also compared with its golden.
        result = result_of("torture")
        assert result.ok, result.to_table()
        run = result.counters["run"]
        assert run["lost_commits"] == 0
        assert run["unresolved_corruptions"] == 0
        assert run["torn_txns_committed"] == 0
        # The schedule actually injected every gray-fault kind ...
        assert run["corruptions_injected"] >= 1
        assert run["committed_orders"] > 100
        assert {e.kind for e in result.timeline if e.source == "fault"} >= {
            "slow_disk", "flaky_link", "torn_write", "bit_rot"}
        # ... the detector flagged the limping node before (or absent)
        # an SLO breach ...
        assert run["limping_flagged_after"] <= run["slo_breached_after"]
        gray = result.counters["gray"]
        assert gray["suspects"] >= 1
        assert gray["quarantines"] >= 1
        assert gray["drains"] >= 1
        # ... and every injected corruption was surfaced through a
        # typed integrity path, never silently read.
        assert run["integrity_errors_surfaced"] + run["promotions"] >= 1
        rendered = result.to_table()
        assert "VIOLATION" not in rendered
        assert "\nscrub\n" in rendered and "\ngray\n" in rendered

    def test_a_doctored_counter_names_the_claim_and_both_numbers(self):
        result = copy.deepcopy(result_of("torture"))
        assert harness.shape_violations(
            "torture", result.counters["run"], CLAIMS) == []
        result.counters["run"]["lost_commits"] = 1
        assert harness.shape_violations(
            "torture", result.counters["run"], CLAIMS) == [
            "torture: lost_commits == 0 does not hold (1 == 0)"]

    def test_same_seed_same_fingerprint(self):
        config = dataclasses.replace(quick_torture_config(), seed=2)
        a = run_torture(config)
        assert a.ok and a.counters["run"]["corruptions_injected"] >= 1
        gate = rerun_gate(config, [a])
        assert gate.ok and "MATCHES" in gate.title, gate.to_table()

    def test_distinct_seeds_distinct_schedules(self):
        a = result_of("torture")
        b = run_torture(dataclasses.replace(quick_torture_config(), seed=1))
        assert b.ok and b.counters["run"]["corruptions_injected"] >= 1
        assert a.counters != b.counters

    def test_audit_mode_is_clean(self):
        config = dataclasses.replace(quick_torture_config(), seed=0,
                                     audit=True)
        result = run_torture(config)
        assert result.ok, result.violations
        assert result.counters["audit"]["ops_recorded"] > 0

    def test_detection_gate_fails_when_detector_is_deaf(self):
        # Thresholds nothing can cross: the limping node never gets
        # flagged, so the detection gate must report the miss.
        config = dataclasses.replace(
            quick_torture_config(),
            score_threshold=1e9, clear_threshold=1.0, seed=0,
        )
        result = run_torture(config)
        assert result.counters["run"]["limping_flagged_after"] is None
        assert not result.ok
        assert ("torture: limping_flagged_after <= slo_breached_after does "
                "not hold (no samples)") in result.violations
