"""The command end to end: metric names against BENCHMARK.json, the
determinism guard, and the smoke path."""

import itertools
import json
import subprocess
import sys
import time

import pytest

from perfledger import run
from perfledger.stats import fingerprint

SPEC = run.load_spec()


def named(group):
    return {metric["name"] for metric in SPEC[group]}


def test_benchmark_json_names_the_four_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in named("end_to_end")
    assert SPEC["paths"] == ["perfledger"]


def test_output_names_exactly_the_metrics_in_benchmark_json():
    measured = run.measure(SPEC, "read_replica", itertools.repeat(3), 0.1,
                           reps=1, traced=True)
    assert set(measured["end_to_end"]) == named("end_to_end")
    assert set(measured["per_layer"]) == named("per_layer")
    for group in ("end_to_end", "per_layer"):
        for name, metric in measured[group].items():
            assert isinstance(metric["value"], (int, float)), name
            assert metric["unit"], name
    # The profile accounts for the traced run's wall time.
    self_s = sum(m["value"] for name, m in measured["per_layer"].items()
                 if name.endswith(".host_self_s"))
    assert self_s == pytest.approx(measured["traced_wall_s"], rel=0.05)


def test_an_unnamed_or_missing_metric_is_refused():
    measured = {"end_to_end": dict.fromkeys(named("end_to_end"), {})}
    run.check_names(SPEC, measured)
    measured["end_to_end"]["surprise"] = {}
    with pytest.raises(run.LedgerError, match="unnamed.*surprise"):
        run.check_names(SPEC, measured)
    del measured["end_to_end"]["surprise"], measured["end_to_end"]["host_s"]
    with pytest.raises(run.LedgerError, match="missing.*host_s"):
        run.check_names(SPEC, measured)


def test_determinism_guard_names_the_first_differing_metric():
    def record(value, traced=False, seed=0):
        sim = {"sim.events": 10, "txn.commits": value}
        out = {"seed": seed, "sim": sim, "sim_fingerprint": fingerprint(sim)}
        if traced:
            out["profile"] = {}
        return out

    run.check_determinism("w", [record(5), record(5), record(5, traced=True)])
    with pytest.raises(run.LedgerError, match="repetition 1 .* txn.commits"):
        run.check_determinism("w", [record(5), record(6)])
    with pytest.raises(run.LedgerError, match="traced run .* txn.commits"):
        run.check_determinism("w", [record(5), record(5), record(6, True)])
    # Different seeds are different inputs and may differ.
    run.check_determinism("w", [record(5), record(6, seed=1),
                                record(6, traced=True, seed=1)])


def test_smoke_runs_all_four_workloads_in_under_30_seconds(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, run.__file__, "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 30.0
    document = json.loads(out.read_text())
    assert list(document["workloads"]) == list(run.WORKLOADS)
    assert list(document)[-1] == "claim" and document["claim"] is None
    for measured in document["workloads"].values():
        assert set(measured["end_to_end"]) == named("end_to_end")
        assert measured["attempted"] >= 1
