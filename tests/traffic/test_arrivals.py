"""Arrival processes: shapes, composition, and seeded Poisson draws."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.traffic import (
    ConstantArrivals,
    DiurnalArrivals,
    FlashCrowd,
    sample_poisson,
)


class TestShapes:
    def test_constant(self):
        a = ConstantArrivals(42.0)
        assert a.rate(0) == a.rate(1e6) == 42.0
        with pytest.raises(ValueError):
            ConstantArrivals(-1.0)

    def test_diurnal_peak_and_trough(self):
        a = DiurnalArrivals(base_rate=100.0, amplitude=0.5, period=400.0)
        assert a.rate(0) == pytest.approx(100.0)
        assert a.rate(100) == pytest.approx(150.0)   # peak at period/4
        assert a.rate(300) == pytest.approx(50.0)    # trough at 3/4
        assert a.rate(400) == pytest.approx(100.0)   # periodic

    def test_diurnal_phase_shifts_the_peak(self):
        a = DiurnalArrivals(base_rate=100.0, amplitude=0.5, period=400.0,
                            phase=100.0)
        assert a.rate(200) == pytest.approx(150.0)

    def test_diurnal_full_amplitude_clamps_at_zero(self):
        a = DiurnalArrivals(base_rate=100.0, amplitude=1.0, period=400.0)
        assert a.rate(300) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            DiurnalArrivals(base_rate=1.0, amplitude=1.5)

    def test_flash_crowd_envelope(self):
        a = FlashCrowd(peak_rate=200.0, start=100.0, ramp=50.0,
                       hold=100.0, decay=25.0)
        assert a.rate(99.9) == 0.0
        assert a.rate(125.0) == pytest.approx(100.0)      # mid-ramp
        assert a.rate(150.0) == pytest.approx(200.0)      # ramp done
        assert a.rate(200.0) == pytest.approx(200.0)      # holding
        assert a.rate(275.0) == pytest.approx(200.0 * math.exp(-1.0))
        assert a.rate(10_000.0) < 1e-9


class TestComposition:
    def test_add_sums_rates(self):
        a = ConstantArrivals(10.0) + ConstantArrivals(5.0)
        assert a.rate(0) == pytest.approx(15.0)

    def test_add_flattens_nested_composites(self):
        a = (ConstantArrivals(1.0) + ConstantArrivals(2.0)) \
            + ConstantArrivals(3.0)
        assert len(a.parts) == 3
        assert a.rate(0) == pytest.approx(6.0)


class TestPoisson:
    def test_zero_and_negative_intensity(self):
        rng = random.Random(1)
        assert sample_poisson(rng, 0.0) == 0
        assert sample_poisson(rng, -5.0) == 0

    def test_seed_replayable(self):
        draws_a = [sample_poisson(random.Random(7), lam)
                   for lam in (0.5, 3.0, 80.0, 900.0)]
        draws_b = [sample_poisson(random.Random(7), lam)
                   for lam in (0.5, 3.0, 80.0, 900.0)]
        assert draws_a == draws_b

    @pytest.mark.parametrize("lam", [0.5, 4.0, 60.0, 2000.0])
    def test_moments_match(self, lam):
        """Mean ~= lam and variance ~= lam on both sampler paths
        (Knuth below the switchover, normal approximation above)."""
        rng = random.Random(42)
        n = 4000
        draws = [sample_poisson(rng, lam) for _ in range(n)]
        mean = sum(draws) / n
        var = sum((d - mean) ** 2 for d in draws) / n
        assert mean == pytest.approx(lam, rel=0.15)
        assert var == pytest.approx(lam, rel=0.30)
        assert all(d >= 0 for d in draws)

    @given(lam=st.floats(min_value=0.0, max_value=5_000.0,
                         allow_nan=False),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_never_negative(self, lam, seed):
        assert sample_poisson(random.Random(seed), lam) >= 0
