"""Elasticity experiment smoke: a compressed audited day must breathe
with the trace, conserve every offered request, and replay
bit-identically.  The autoscale and static days are the ``elasticity``
family of tests/determinism/harness.py, so they are also pinned by its
golden."""

import dataclasses

import pytest

from repro.experiments import harness
from repro.experiments.elasticity import (
    INITIALLY_ACTIVE,
    ElasticityConfig,
    compare,
    run_elasticity,
)
from tests.determinism.harness import ELASTICITY_SMOKE as SMOKE, result_of


@pytest.fixture(scope="module")
def autoscale_result():
    return result_of("elasticity")[0]


def test_autoscale_day_is_clean(autoscale_result):
    r = autoscale_result
    assert r.violations == []
    assert r.offered >= SMOKE.min_requests
    assert r.counters["audit"]["ops_recorded"] > 0


def test_cluster_breathes_with_the_trace(autoscale_result):
    r = autoscale_result
    run = r.counters["run"]
    outs = [e for e in r.timeline if e.kind == "scale-out"]
    ins = [e for e in r.timeline if e.kind == "scale-in"]
    assert outs and ins
    assert outs[0].time == run["first_scale_out"] < run["peak_time"]
    assert ins[-1].time == run["last_scale_in"] > run["peak_time"]
    assert run["peak_active_nodes"] > INITIALLY_ACTIVE


def test_admission_conservation(autoscale_result):
    stats = autoscale_result.counters["admission"]
    assert stats["offered"] == (stats["admitted"] + stats["rejected"]
                                + stats["shed"])
    assert stats["admitted"] == stats["completed"] + stats["abandoned"]
    # The batch tenant's contract is below its offered rate.
    assert stats["rejected"] > 0


def test_replay_is_bit_identical(autoscale_result):
    again = run_elasticity(SMOKE)
    assert again.counters == autoscale_result.counters
    assert again.series == autoscale_result.series
    assert again.timeline == autoscale_result.timeline


def test_static_baseline_uses_more_energy(autoscale_result):
    static = result_of("elasticity")[1]
    run = static.counters["run"]
    assert run["mode"] == "static" and static.violations == []
    assert static.timeline == []
    assert run["final_active_nodes"] == harness.OPEN_LOOP_NODES
    # Full provisioning burns more joules for the same day of demand.
    assert run["energy_joules"] > \
        autoscale_result.counters["run"]["energy_joules"]
    gate = compare([autoscale_result, static])
    assert gate.ok
    assert "saved by breathing with the trace" in gate.title
    assert "\ntenants\ntenant " in static.to_table()


def test_seed_changes_the_run(autoscale_result):
    other = run_elasticity(dataclasses.replace(SMOKE, seed=1))
    assert other.counters["admission"] != \
        autoscale_result.counters["admission"]


def test_elastic_day_seed_21_survives_a_retired_forwarding_stub():
    """The perf ledger's ``elastic_day`` shape on the seed that used to
    kill the autoscaler process in a scale-in (``segment 90 range ...
    overlaps segment 52``; see tests/core/test_range_move_minting.py)."""
    preset = ElasticityConfig()
    result = run_elasticity(dataclasses.replace(
        preset, mode="autoscale", seed=21, day_seconds=300.0,
        min_requests=125_000, batch_rate_limit=2.5 * preset.batch_rate,
        load_segment_max_pages=32, audit=True,
    ))
    assert result.ok, result.violations
    assert "audit" in result.counters
