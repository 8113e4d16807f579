"""Audited experiment smokes: the history recorder rides a chaos run
and a failover run end to end, and the checkers certify both clean.
These are the pytest twins of CI's ``--audit`` CLI gates."""

import dataclasses

import pytest

from repro.experiments.chaos_moves import ChaosConfig, run_chaos
from repro.experiments.fig9_failover import quick_fig9_config, run_fig9_single

# Consistent with tier-1's global --timeout=600 (enforced where
# pytest-timeout is installed; inert otherwise).
pytestmark = pytest.mark.timeout(600)


def test_audited_chaos_run_is_clean():
    result = run_chaos(ChaosConfig(seed=0, audit=True))
    assert not [v for v in result.violations if "double-charge" in v]
    assert result.ok, result.violations
    audit = result.counters["audit"]
    assert audit["ops_recorded"] > 0
    # Every acknowledged write is a request with an ack the
    # cost-conservation checker judged.
    assert audit["ack"] == result.counters["run"]["acked_writes"] > 0
    assert audit["ops_dropped"] == 0
    assert audit["coverage_checkpoints"] >= 2


def test_audited_failover_run_is_clean():
    config = dataclasses.replace(quick_fig9_config(), audit=True)
    result = run_fig9_single(2, config)
    assert result.ok, result.violations
    assert result.counters["run"]["lost_commits"] == 0
    assert result.counters["audit"]["ops_recorded"] > 0
