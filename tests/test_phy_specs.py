"""Unit tests for PHY specs (paper Table 2)."""

import pytest

from repro.phy.specs import (
    COMMON_COUNTER_UNIT_FS,
    PHY_1G,
    PHY_10G,
    PHY_40G,
    PHY_100G,
    SPECS,
)
from repro.sim import units


def test_table2_periods():
    assert PHY_1G.period_ns == pytest.approx(8.0)
    assert PHY_10G.period_ns == pytest.approx(6.4)
    assert PHY_40G.period_ns == pytest.approx(1.6)
    assert PHY_100G.period_ns == pytest.approx(0.64)


def test_table2_increments():
    assert PHY_1G.counter_increment == 25
    assert PHY_10G.counter_increment == 20
    assert PHY_40G.counter_increment == 5
    assert PHY_100G.counter_increment == 2


def test_increment_times_common_unit_equals_period():
    for spec in SPECS.values():
        assert spec.counter_increment * COMMON_COUNTER_UNIT_FS == spec.period_fs


def test_encodings():
    assert PHY_1G.encoding == "8b/10b"
    assert all(SPECS[name].encoding == "64b/66b" for name in ("10G", "40G", "100G"))


def test_frequencies_match_periods():
    for spec in SPECS.values():
        assert units.SEC / spec.frequency_hz == pytest.approx(spec.period_fs, rel=1e-9)


def test_spec_lookup():
    assert SPECS["10G"] is PHY_10G
    with pytest.raises(KeyError):
        SPECS["25G"]


def test_blocks_for_bytes_10g():
    # 1530 wire bytes (MTU + preamble) -> 192 blocks of 8 payload bytes.
    assert PHY_10G.blocks_for_bytes(1530) == 192


def test_blocks_for_bytes_1g():
    # 8b/10b carries one byte per block.
    assert PHY_1G.blocks_for_bytes(100) == 100
