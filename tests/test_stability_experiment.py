"""Smoke test for the MTIE/ADEV stability comparison."""

from repro.experiments.stability import dtp_offset_series, ptp_offset_series
from repro.sim import units


def test_dtp_series_bounded():
    series = dtp_offset_series(duration_fs=4 * units.MS)
    assert len(series) > 100
    assert series.max_abs() <= 4 * units.TICK_10G_FS


def test_ptp_series_has_noise():
    series = ptp_offset_series(load="heavy", duration_fs=120 * units.SEC)
    assert len(series) > 50
    assert series.max_abs() > units.US  # loaded PTP wanders by microseconds


def test_comparison_summary(assert_claims):
    assert_claims("stability/dtp-mtie-flat", "stability/ptp-mtie-above")
