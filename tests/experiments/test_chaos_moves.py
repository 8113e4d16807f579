"""Chaos harness: schedule determinism and the invariant gate on a
few fixed seeds (``python -m repro.experiments chaos --full`` sweeps
ten)."""

import random

import pytest

from repro.experiments.chaos_moves import (
    ChaosConfig,
    build_schedule,
    render_chaos,
    run_chaos,
)
from tests.determinism.harness import result_of

# Consistent with tier-1's global --timeout=600.
pytestmark = pytest.mark.timeout(600)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        config = ChaosConfig()
        a = build_schedule(config, random.Random(42))
        b = build_schedule(config, random.Random(42))
        c = build_schedule(config, random.Random(43))
        assert a == b
        assert a != c

    def test_every_fault_gets_its_recovery_without_overlap(self):
        recover = {"crash": "restart", "sever_link": "restore_link"}
        config = ChaosConfig(fault_pairs=6)
        events = build_schedule(config, random.Random(7))
        assert events and len(events) % 2 == 0
        busy_until = {}
        for (at, kind, node), (rec_at, rec_kind, rec_node) in zip(
            events[0::2], events[1::2]
        ):
            assert rec_kind == recover[kind]
            assert rec_node == node
            assert rec_at > at
            assert config.warmup <= at < config.warmup + config.fault_span
            # Outages on one node never overlap (plus boot headroom).
            assert at >= busy_until.get(node, 0.0)
            busy_until[node] = rec_at + config.boot_seconds + 1.0


class TestInvariantGate:
    def test_single_seed_run_is_clean(self):
        result = run_chaos(seed=0)
        assert result.ok, result.violations
        assert result.faults, "schedule injected nothing"
        assert result.acked_writes > 0
        assert result.move_summary["moves_total"] > 0
        assert result.move_summary["open_moves"] == 0
        assert result.move_summary["open_range_moves"] == 0

    def test_three_seed_suite_holds_invariants_and_resumes(self):
        suite = result_of("chaos")      # seeds 0-2; also a golden
        assert [run.seed for run in suite.runs] == [0, 1, 2]
        assert suite.total_violations == 0, suite.to_table()
        # At least one schedule must complete a move through a
        # chunk-level resume — the metric the tentpole promises.
        assert suite.any_resumed_completion
        rendered = render_chaos(suite)
        assert "0 invariant violations" in rendered
        assert "move summary" in rendered

    def test_deterministic_replay(self):
        a = run_chaos(seed=1)
        b = run_chaos(seed=1)
        assert a.faults == b.faults
        assert a.move_summary == b.move_summary
        assert a.acked_writes == b.acked_writes
        assert a.violations == b.violations
