"""Tests for cost breakdowns, time series, and report rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (
    CostBreakdown,
    TimeSeries,
    percentile,
    render_counters,
    render_series_table,
    render_table,
)
from repro.metrics.breakdown import COMPONENTS
from repro.sim.engine import Environment
from repro.traffic import AdmissionController, Request


class TestCostBreakdown:
    def test_add_and_total(self):
        b = CostBreakdown()
        b.add("disk_io", 0.5)
        b.add("locking", 0.25)
        assert b.disk_io == 0.5
        assert b.total == pytest.approx(0.75)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            CostBreakdown().add("gpu", 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostBreakdown().add("disk_io", -1.0)

    def test_merge(self):
        a = CostBreakdown(disk_io=1.0)
        b = CostBreakdown(disk_io=0.5, logging=2.0)
        a.merge(b)
        assert a.disk_io == 1.5
        assert a.logging == 2.0

    def test_scaled(self):
        b = CostBreakdown(disk_io=2.0, latching=4.0)
        half = b.scaled(0.5)
        assert half.disk_io == 1.0
        assert half.latching == 2.0
        assert b.disk_io == 2.0  # original untouched

    def test_as_dict_covers_all_components(self):
        assert set(CostBreakdown().as_dict()) == set(COMPONENTS)


class TestPercentile:
    def test_basic(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0) == 1
        assert percentile(values, 50) == 3
        assert percentile(values, 100) == 5

    def test_interpolation(self):
        assert percentile([1, 2], 50) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_property_bounds(self, values):
        assert min(values) <= percentile(values, 50) <= max(values)


class TestTimeSeries:
    def test_record_and_values(self):
        s = TimeSeries("x")
        s.record(1.0, 10.0)
        s.record(2.0, 20.0)
        assert len(s) == 2
        assert s.values() == [10.0, 20.0]

    def test_between(self):
        s = TimeSeries()
        for t in range(10):
            s.record(float(t), float(t))
        assert s.between(2, 5) == [2.0, 3.0, 4.0]

    def test_bucket_mean_with_gaps(self):
        s = TimeSeries()
        s.record(0.5, 10.0)
        s.record(2.5, 30.0)
        buckets = s.bucket_mean(0, 3, 1.0)
        assert buckets == [(0, 10.0), (1.0, None), (2.0, 30.0)]

    def test_bucket_rate(self):
        s = TimeSeries()
        for t in (0.1, 0.2, 0.3, 1.5):
            s.record(t, 1.0)
        rates = s.bucket_rate(0, 2, 1.0)
        assert rates == [(0, 3.0), (1.0, 1.0)]

    def test_bucket_validation(self):
        s = TimeSeries()
        with pytest.raises(ValueError):
            s.bucket_mean(0, 1, 0)
        with pytest.raises(ValueError):
            s.bucket_rate(0, 1, -1)


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, None]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "-" in lines[2]
        assert "10" in lines[4] and "-" in lines[4]

    def test_render_table_arity_check(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_series_table(self):
        series = {
            "x": [(0.0, 1.0), (10.0, 2.0)],
            "y": [(0.0, 3.0), (10.0, None)],
        }
        out = render_series_table(series)
        assert "x" in out and "y" in out
        assert "10.0" in out

    def test_render_series_table_mismatch(self):
        with pytest.raises(ValueError):
            render_series_table({
                "x": [(0.0, 1.0)],
                "y": [(5.0, 1.0)],
            })

    def test_render_series_table_empty(self):
        with pytest.raises(ValueError):
            render_series_table({})

    def test_render_counters_prints_every_stat_in_order(self):
        """A component's ``stats()`` is the one place its counters are
        named: the report shows every key and value, in dict order."""
        admission = AdmissionController(Environment(), queue_limit=10)
        admission.offer(Request("web", 0.0, count=12))
        stats = admission.stats()
        lines = render_counters("admission", stats).splitlines()
        assert lines[0] == "admission"
        rows = [line.split() for line in lines[3:]]
        assert [key for key, _value in rows] == list(stats)
        assert [float(value) for _key, value in rows] == [
            float(value) for value in stats.values()]
        assert stats["offered"] == stats["shed"] == 12
