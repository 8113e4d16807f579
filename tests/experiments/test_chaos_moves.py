"""Chaos harness: schedule determinism and the invariant gate on a
few fixed seeds (``python -m repro.experiments chaos --full`` sweeps
ten)."""

import random

import pytest

from repro.experiments.chaos_moves import (
    BOOT_SECONDS,
    TARGET_NODE,
    WARMUP,
    ChaosConfig,
    build_schedule,
    run_chaos,
    suite,
)
from repro.ha import FaultInjector
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
            assert WARMUP <= at < WARMUP + config.fault_span
            # Outages on one node never overlap (plus boot headroom).
            assert at >= busy_until.get(node, 0.0)
            busy_until[node] = rec_at + BOOT_SECONDS + 1.0


class TestInvariantGate:
    def test_single_seed_run_is_clean(self):
        result = run_chaos(ChaosConfig(seed=0))
        assert result.ok, result.violations
        assert result.timeline, "schedule injected nothing"
        assert {e.source for e in result.timeline} == {"fault"}
        assert result.counters["run"]["acked_writes"] > 0
        moves = result.counters["moves"]
        assert moves["moves_total"] > 0
        assert moves["open_moves"] == 0
        assert moves["open_range_moves"] == 0

    def test_three_seed_suite_holds_invariants_and_resumes(self):
        runs = result_of("chaos")      # seeds 0-2; also a golden
        assert [run.counters["run"]["seed"] for run in runs] == [0, 1, 2]
        assert all(run.ok for run in runs), [run.violations for run in runs]
        # At least one schedule must complete a move through a
        # chunk-level resume — the metric the tentpole promises.
        gate = suite(runs)
        assert gate.ok, gate.violations
        assert gate.counters["sweep"]["moves_done_by_chunk_resume"] > 0
        assert gate.counters["moves (all schedules)"]["moves_total"] == sum(
            run.counters["moves"]["moves_total"] for run in runs)
        assert "moves (all schedules)" in gate.to_table()

    def test_deterministic_replay(self):
        a = run_chaos(ChaosConfig(seed=1))
        b = run_chaos(ChaosConfig(seed=1))
        assert a.timeline == b.timeline
        assert a.counters == b.counters
        assert a.violations == b.violations


def test_quiesce_waits_for_a_node_still_booting():
    """A node restarted less than BOOT_SECONDS before the writers stop
    is still booting when the run quiesces: the quiesce waits for its
    boot, so the readback sees a healed cluster instead of dying with
    ``NodeDownError`` on the half of ``kv`` the node owns."""
    config = ChaosConfig(seed=0, rows=600, fault_pairs=0, fault_span=25.0,
                         tail=8.0, writers=2, writer_interval=0.5)
    restart_at = config.duration - 0.5

    def instrument(env, cluster):
        injector = FaultInjector(cluster)
        injector.crash_at(config.duration - 3.0, TARGET_NODE)
        injector.restart_at(restart_at, TARGET_NODE)
        env.process(injector.run(), name="late-restart")

    result = run_chaos(config, instrument=instrument)
    assert result.ok, result.violations
    assert [(event.time, event.kind) for event in result.timeline] == [
        (config.duration - 3.0, "crash"), (restart_at, "restart")]
    assert result.counters["run"]["acked_writes"] > 0
