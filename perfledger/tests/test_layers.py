"""The package fold, on a synthetic pstats table."""

import pytest

from perfledger.layers import LAYERS, fold_profile, layer_of

SRC = "/somewhere/src/repro"


def row(calls, tottime):
    # (primitive calls, calls, tottime, cumtime, callers)
    return (calls, calls, tottime, tottime * 2, {})


TABLE = {
    (f"{SRC}/sim/engine.py", 376, "_step"): row(100, 1.0),
    (f"{SRC}/sim/engine.py", 544, "run"): row(1, 0.5),
    (f"{SRC}/cluster/master.py", 108, "_routed"): row(40, 0.25),
    (f"{SRC}/storage/checksum.py", 50, "_plain"): (10, 30, 0.125, 0.2, {}),
    (f"{SRC}/storage/buffer.py", 200, "pin"): row(20, 0.375),
    (f"{SRC}/experiments/fig6_schemes.py", 244, "run_fig6"): row(1, 0.0625),
    ("~", 0, "<built-in method builtins.len>"): row(50, 0.03125),
    ("/usr/lib/python3.11/heapq.py", 1, "heappush"): row(5, 0.015625),
}


def test_layer_of_maps_packages_and_everything_else_to_other():
    assert layer_of(f"{SRC}/sim/engine.py") == "sim"
    assert layer_of(f"{SRC}/reads/router.py") == "reads"
    assert layer_of(f"{SRC}/metrics/series.py") == "other"
    assert layer_of(f"{SRC}/experiments/fig6_schemes.py") == "other"
    assert layer_of("~") == "other"
    assert layer_of("C:\\x\\repro\\txn\\wal.py") == "txn"


def test_fold_sums_self_time_and_calls_by_layer():
    out = fold_profile(TABLE, commits=10)
    assert out["sim.host_self_s"] == 1.5
    assert out["sim.calls_per_commit"] == 10.1
    assert out["cluster.host_self_s"] == 0.25
    assert out["storage.host_self_s"] == 0.5
    # Recursive calls count: 30, not the 10 primitive ones.
    assert out["storage.calls_per_commit"] == 5.0
    assert out["other.host_self_s"] == 0.0625 + 0.03125 + 0.015625
    assert out["ha.host_self_s"] == 0.0 and out["ha.calls_per_commit"] == 0.0


def test_fold_names_the_hot_spots():
    out = fold_profile(TABLE, commits=10)
    assert out["sim.resumes_per_commit"] == 10.0
    assert out["cluster.routed_per_commit"] == 4.0
    assert out["storage.checksum_self_s"] == 0.125
    assert out["storage.checksum_calls_per_commit"] == 3.0
    assert out["trace.calls_total"] == 247


def test_fold_accounts_for_every_second_of_the_table():
    out = fold_profile(TABLE, commits=10)
    total = sum(out[f"{layer}.host_self_s"] for layer in LAYERS)
    assert total == pytest.approx(sum(r[2] for r in TABLE.values()))
