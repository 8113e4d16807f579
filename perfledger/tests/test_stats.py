"""Percentile, histogram merge, spread and fingerprint helpers."""

import pytest

from perfledger.stats import (fingerprint, first_difference,
                              merge_histograms, percentile, spread)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 99) == 5.0
    assert percentile(samples, 20) == 1.0
    assert percentile(samples, 21) == 2.0
    assert percentile(list(range(1, 1001)), 99) == 990


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_merged_histogram_holds_every_tenants_observations():
    from repro.metrics.series import LatencyHistogram

    fast, slow, idle = (LatencyHistogram(name=n) for n in "abc")
    for _ in range(90):
        fast.record(1.0)
    slow.record(1000.0, count=10)
    merged = merge_histograms([fast, slow, idle])
    assert merged.count == 100
    assert merged.percentile(50) == pytest.approx(1.0, rel=0.1)
    assert merged.percentile(99) == pytest.approx(1000.0, rel=0.1)
    # The inputs are left alone.
    assert fast.count == 90 and slow.count == 10


def test_spread_reports_min_median_and_quartiles():
    out = spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert out["min"] == 1.0 and out["median"] == 3.0
    assert out["q1"] == 1.5 and out["q3"] == 4.5
    assert spread([7.0]) == {"min": 7.0, "median": 7.0, "q1": 7.0, "q3": 7.0}


def test_fingerprint_is_bit_exact_and_order_free():
    a = {"x": 0.1 + 0.2, "n": 3}
    assert fingerprint(a) == fingerprint({"n": 3, "x": 0.1 + 0.2})
    assert fingerprint(a) != fingerprint({"n": 3, "x": 0.3})


def test_first_difference_names_the_metric():
    a = {"a.x": 1, "b.y": 2.0, "c.z": 3}
    assert first_difference(a, dict(a)) is None
    assert first_difference(a, {**a, "b.y": 2.5, "c.z": 4}) == "b.y"
    assert first_difference(a, {"a.x": 1, "b.y": 2.0}) == "c.z"
