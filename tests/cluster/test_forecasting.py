"""Tests for load forecasting and the control loop's proactive
boosting."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import PolicyThresholds, ThresholdPolicy
from repro.cluster.forecasting import LoadForecaster, WorkloadHint
from repro.cluster.monitor import NodeSample
from repro.traffic import Autoscaler


def sample(node_id=0, cpu=0.0, time=0.0):
    return NodeSample(
        time=time, node_id=node_id, cpu_utilization=cpu,
        disk_utilization=0.0, iops=0.0, net_bytes=0,
        buffer_hit_ratio=1.0, partition_stats=[],
    )


class TestLoadForecaster:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadForecaster(alpha=0)
        with pytest.raises(ValueError):
            LoadForecaster(beta=1.5)
        with pytest.raises(ValueError):
            LoadForecaster(horizon=0)

    def test_no_prediction_before_observation(self):
        f = LoadForecaster()
        assert f.predict(0) is None

    def test_flat_load_predicts_flat(self):
        f = LoadForecaster(horizon=30)
        for t in range(0, 60, 5):
            f.observe(sample(cpu=0.4, time=float(t)))
        assert f.predict(0, now=55.0) == pytest.approx(0.4, abs=0.05)

    def test_rising_load_predicts_above_current(self):
        f = LoadForecaster(horizon=30)
        for i, t in enumerate(range(0, 60, 5)):
            f.observe(sample(cpu=0.02 * i, time=float(t)))
        current = 0.02 * 11
        predicted = f.predict(0, now=55.0)
        assert predicted > current

    def test_prediction_clamped_to_unit_interval(self):
        f = LoadForecaster(horizon=1000)
        for i, t in enumerate(range(0, 60, 5)):
            f.observe(sample(cpu=min(0.08 * i, 1.0), time=float(t)))
        assert f.predict(0, now=55.0) == 1.0

    def test_hint_overrides_low_forecast(self):
        f = LoadForecaster(horizon=30)
        for t in range(0, 60, 5):
            f.observe(sample(cpu=0.1, time=float(t)))
        f.add_hint(WorkloadHint(start=80, end=120, expected_utilization=0.9))
        assert f.predict(0, now=55.0) == pytest.approx(0.9)
        # Outside the hint window the forecast is the smoothed level.
        assert f.predict(0, now=200.0) == pytest.approx(0.1, abs=0.05)

    def test_hint_validation(self):
        with pytest.raises(ValueError):
            WorkloadHint(10, 10, 0.5)
        with pytest.raises(ValueError):
            WorkloadHint(0, 10, 1.5)

    def test_clear_expired_hints(self):
        f = LoadForecaster()
        f.add_hint(WorkloadHint(0, 10, 0.9))
        f.add_hint(WorkloadHint(100, 200, 0.9))
        f.clear_expired_hints(now=50.0)
        assert len(f._hints) == 1

    def test_per_node_state_is_independent(self):
        f = LoadForecaster()
        f.observe(sample(node_id=0, cpu=0.9, time=0))
        f.observe(sample(node_id=1, cpu=0.1, time=0))
        assert f.predict(0) > f.predict(1)


utilizations = st.floats(min_value=0.0, max_value=1.0,
                         allow_nan=False, allow_infinity=False)


class TestForecasterProperties:
    """Utilisation is a fraction: no input trace may ever drive the
    smoothed state (or any prediction) out of [0, 1]."""

    @given(trace=st.lists(utilizations, min_size=2, max_size=60),
           alpha=st.floats(min_value=0.05, max_value=1.0),
           beta=st.floats(min_value=0.05, max_value=1.0))
    def test_bursty_trace_stays_in_unit_interval(self, trace, alpha, beta):
        f = LoadForecaster(alpha=alpha, beta=beta, horizon=300.0)
        for i, cpu in enumerate(trace):
            f.observe(sample(cpu=cpu, time=5.0 * i))
            level, _trend, _t = f._state[0]
            assert 0.0 <= level <= 1.0
            predicted = f.predict(0)
            assert 0.0 <= predicted <= 1.0

    @given(low=utilizations, high=utilizations,
           step_at=st.integers(min_value=1, max_value=19),
           horizon=st.floats(min_value=1.0, max_value=10_000.0))
    def test_step_trace_stays_in_unit_interval(self, low, high, step_at,
                                               horizon):
        """A step input (the worst case for trend extrapolation: the
        trend right after the edge points far past the plateau) must
        still predict inside [0, 1] at any horizon."""
        f = LoadForecaster(alpha=0.9, beta=0.9, horizon=horizon)
        for i in range(20):
            cpu = low if i < step_at else high
            f.observe(sample(cpu=cpu, time=5.0 * i))
            level, _trend, _t = f._state[0]
            assert 0.0 <= level <= 1.0
            assert 0.0 <= f.predict(0) <= 1.0

    @given(start=st.floats(min_value=0.0, max_value=1_000.0),
           length=st.floats(min_value=1e-3, max_value=1_000.0),
           hinted=utilizations.filter(lambda u: u >= 0.5))
    def test_hint_window_boundaries(self, start, length, hinted):
        """A hint covers [start, end): the forecast at a target exactly
        on ``start`` honours the hint, a target exactly on ``end`` does
        not (it falls back to the smoothed level)."""
        end = start + length
        f = LoadForecaster(horizon=30.0)
        f.observe(sample(cpu=0.1, time=0.0))
        f.observe(sample(cpu=0.1, time=5.0))
        f.add_hint(WorkloadHint(start=start, end=end,
                                expected_utilization=hinted))
        # horizon=0 keeps the target time float-exact on the boundary.
        at_start = f.predict(0, now=start, horizon=0.0)
        assert at_start == pytest.approx(hinted)
        at_end = f.predict(0, now=end, horizon=0.0)
        assert at_end == pytest.approx(0.1, abs=0.05)


class TestForecastBoosting:
    """The control loop judges samples lifted to their forecast."""

    @staticmethod
    def make(forecaster=None):
        # Signals only: no cluster or rebalancer is touched.
        return Autoscaler(
            None, None, [], forecaster=forecaster,
            policy=ThresholdPolicy(PolicyThresholds(consecutive_samples=1)),
        )

    @staticmethod
    def observe(scaler, samples):
        """One loop round's signal path."""
        scaler.forecaster.observe_all(samples)
        return scaler.policy.observe(scaler._boosted(samples))

    def test_fires_before_threshold_is_violated(self):
        """A steeply rising load triggers scale-out while current
        utilisation is still under the 80% bound."""
        scaler = self.make(LoadForecaster(alpha=0.8, beta=0.8, horizon=60))
        decision = None
        for i, t in enumerate(range(0, 40, 5)):
            cpu = 0.05 + 0.06 * i  # reaches only 0.47 now, 80%+ soon
            decision = self.observe(scaler, [sample(cpu=cpu, time=float(t))])
        assert decision is not None
        assert decision.wants_scale_out

    def test_plain_policy_would_not_fire(self):
        base = ThresholdPolicy(PolicyThresholds(consecutive_samples=1))
        decision = None
        for i, t in enumerate(range(0, 40, 5)):
            cpu = 0.05 + 0.06 * i
            decision = base.observe([sample(cpu=cpu, time=float(t))])
        assert not decision.wants_scale_out

    def test_flat_load_does_not_false_fire(self):
        scaler = self.make()
        decision = None
        for t in range(0, 60, 5):
            decision = self.observe(scaler, [sample(cpu=0.5, time=float(t))])
        assert not decision.wants_scale_out
        assert not decision.wants_scale_in

    def test_boost_never_lowers_a_sample(self):
        scaler = self.make()
        hot = sample(cpu=0.95, time=5.0)
        scaler.forecaster.observe(sample(cpu=0.1, time=0.0))
        assert scaler._boosted([hot]) == [hot]
