"""Unit tests for time/rate units."""

import pytest

from repro.sim import units


def test_unit_ladder():
    assert units.PS == 1000
    assert units.NS == 10**6
    assert units.US == 10**9
    assert units.MS == 10**12
    assert units.SEC == 10**15


def test_tick_10g_is_6_4_ns():
    assert units.TICK_10G_FS == 6_400_000
    assert units.TICK_10G_FS / units.NS == pytest.approx(6.4)


def test_ppm_to_fraction():
    assert units.ppm_to_fraction(100.0) == pytest.approx(1e-4)


def test_period_for_positive_ppm_is_shorter():
    nominal = units.TICK_10G_FS
    fast = units.period_fs_for_ppm(nominal, 100.0)
    slow = units.period_fs_for_ppm(nominal, -100.0)
    assert fast < nominal < slow


def test_period_for_zero_ppm_is_nominal():
    assert units.period_fs_for_ppm(units.TICK_10G_FS, 0.0) == units.TICK_10G_FS


def test_period_is_at_least_one():
    assert units.period_fs_for_ppm(1, 1e9) >= 1


def test_fiber_delay_5ns_per_meter():
    assert units.FIBER_DELAY_FS_PER_M == 5 * units.NS
