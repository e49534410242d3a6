"""Unit and property tests for clock-stability metrics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    MetricsError,
    allan_deviation,
    allan_deviation_curve,
    mtie,
    mtie_curve,
)


class TestAllanDeviation:
    def test_constant_offset_has_zero_adev(self):
        assert allan_deviation([5.0] * 100, tau0=1.0) == 0.0

    def test_linear_ramp_has_zero_adev(self):
        """A pure frequency offset (linear phase) has zero second
        differences — ADEV measures *instability*, not offset."""
        ramp = [0.1 * i for i in range(100)]
        assert allan_deviation(ramp, tau0=1.0) == pytest.approx(0.0, abs=1e-15)

    def test_white_phase_noise_scales_down_with_tau(self):
        rng = random.Random(1)
        noise = [rng.gauss(0, 1e-9) for _ in range(4000)]
        adev1 = allan_deviation(noise, tau0=1.0, m=1)
        adev8 = allan_deviation(noise, tau0=1.0, m=8)
        assert adev8 < adev1

    def test_known_alternating_sequence(self):
        # x = [0, a, 0, a, ...]: second differences are +/-4a... compute.
        a = 2.0
        x = [a * (i % 2) for i in range(6)]
        # second diffs (m=1): x[i+2]-2x[i+1]+x[i] = -2a*(-1)^i pattern.
        expected = math.sqrt((4 * a * a) / 2.0)
        assert allan_deviation(x, tau0=1.0) == pytest.approx(expected)

    def test_too_short_raises(self):
        with pytest.raises(MetricsError):
            allan_deviation([1.0, 2.0], tau0=1.0)

    def test_invalid_params(self):
        with pytest.raises(MetricsError):
            allan_deviation([1.0] * 10, tau0=0.0)
        with pytest.raises(MetricsError):
            allan_deviation([1.0] * 10, tau0=1.0, m=0)

    def test_curve_octaves(self):
        rng = random.Random(2)
        series = [rng.gauss(0, 1) for _ in range(100)]
        curve = allan_deviation_curve(series, tau0=1.0)
        taus = sorted(curve)
        assert taus[0] == 1.0
        assert all(b == 2 * a for a, b in zip(taus, taus[1:]))


class TestMtie:
    def test_constant_series_zero(self):
        assert mtie([3.0] * 50, window_samples=10) == 0.0

    def test_step_detected(self):
        x = [0.0] * 20 + [5.0] * 20
        assert mtie(x, window_samples=10) == 5.0

    def test_window_limits_view(self):
        # Slow ramp: within a short window the error is small.
        x = [0.01 * i for i in range(1000)]
        short = mtie(x, window_samples=10)
        long = mtie(x, window_samples=500)
        assert short == pytest.approx(0.09, abs=1e-9)
        assert long == pytest.approx(4.99, abs=1e-9)

    def test_mtie_monotonic_in_window(self):
        rng = random.Random(3)
        x = [rng.gauss(0, 1) for _ in range(500)]
        values = [mtie(x, w) for w in (4, 16, 64, 256)]
        assert values == sorted(values)

    def test_window_too_small(self):
        with pytest.raises(MetricsError):
            mtie([1.0, 2.0, 3.0], window_samples=1)

    def test_curve(self):
        rng = random.Random(4)
        x = [rng.gauss(0, 1) for _ in range(100)]
        curve = mtie_curve(x, tau0=0.5)
        assert 1.0 in curve  # window 2 * tau0


@given(
    data=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=10, max_size=200),
    window=st.integers(min_value=2, max_value=50),
)
@settings(max_examples=50, deadline=None)
def test_property_mtie_bounded_by_peak_to_peak(data, window):
    value = mtie(data, window)
    assert 0.0 <= value <= (max(data) - min(data)) + 1e-9


@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_property_adev_scales_linearly(scale, seed):
    rng = random.Random(seed)
    base = [rng.gauss(0, 1) for _ in range(50)]
    scaled = [v * scale for v in base]
    a = allan_deviation(base, tau0=1.0)
    b = allan_deviation(scaled, tau0=1.0)
    assert b == pytest.approx(a * scale, rel=1e-9)
