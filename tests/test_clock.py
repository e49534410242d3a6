"""Unit tests for tick clocks and the adjustable-frequency (PHC) clock."""

import pytest

from repro.clocks.clock import AdjustableFrequencyClock, TickClock
from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.sim import units

TICK = units.TICK_10G_FS


def make_clock(ppm=0.0, increment=1):
    return TickClock(Oscillator(TICK, ConstantSkew(ppm)), increment=increment)


class TestTickClock:
    def test_counter_starts_at_zero(self):
        assert make_clock().counter_at(0) == 0

    def test_counter_advances_per_tick(self):
        clock = make_clock()
        assert clock.counter_at(10 * TICK) == 10

    def test_increment_scales_counter(self):
        clock = make_clock(increment=20)
        assert clock.counter_at(10 * TICK) == 200

    def test_invalid_increment_rejected(self):
        with pytest.raises(ValueError):
            make_clock(increment=0)

    def test_set_counter(self):
        clock = make_clock()
        clock.set_counter(5 * TICK, 1000)
        assert clock.counter_at(5 * TICK) == 1000
        assert clock.counter_at(6 * TICK) == 1001

    def test_adjust_to_max_jumps_forward(self):
        clock = make_clock()
        t = 100 * TICK
        assert clock.adjust_to_max(t, 500) is True
        assert clock.counter_at(t) == 500
        assert clock.adjustments == 1

    def test_adjust_to_max_ignores_smaller(self):
        clock = make_clock()
        t = 100 * TICK
        assert clock.adjust_to_max(t, 50) is False
        assert clock.counter_at(t) == 100
        assert clock.adjustments == 0

    def test_adjust_to_max_equal_is_noop(self):
        clock = make_clock()
        t = 100 * TICK
        assert clock.adjust_to_max(t, 100) is False

    def test_counter_monotonic_after_adjustment(self):
        clock = make_clock()
        clock.adjust_to_max(10 * TICK, 1_000)
        assert clock.counter_at(11 * TICK) == 1_001


class TestAdjustableFrequencyClock:
    def make(self, ppm=0.0):
        return AdjustableFrequencyClock(Oscillator(TICK, ConstantSkew(ppm)))

    def test_reads_near_true_time_with_zero_skew(self):
        clock = self.make(0.0)
        t = 10 * units.MS
        assert clock.time_at(t) == pytest.approx(t, abs=TICK)

    def test_step_moves_phase(self):
        clock = self.make()
        t = units.MS
        before = clock.time_at(t)
        clock.step(t, 500_000.0)
        assert clock.time_at(t) == pytest.approx(before + 500_000.0, abs=1)
        assert clock.steps == 1

    def test_slew_changes_rate(self):
        clock = self.make()
        t0 = units.MS
        clock.slew(t0, 100e-6)  # run 100 ppm fast
        t1 = t0 + units.MS
        elapsed = clock.time_at(t1) - clock.time_at(t0)
        assert elapsed == pytest.approx(units.MS * 1.0001, rel=1e-5)

    def test_slew_clamped(self):
        clock = self.make()
        clock.slew(0, 1.0)
        assert clock.freq_adj == pytest.approx(500e-6)

    def test_skewed_oscillator_biases_reading(self):
        clock = self.make(100.0)
        t = units.SEC // 100
        drift = clock.time_at(t) - t
        assert drift == pytest.approx(t * 1e-4, rel=0.01)

    def test_set_time(self):
        clock = self.make()
        clock.set_time(units.MS, 42 * units.SEC)
        assert clock.time_at(units.MS) == pytest.approx(42 * units.SEC, abs=TICK)

    def test_reading_far_before_rebase_raises(self):
        clock = self.make()
        clock.step(10 * units.MS, 1000.0)
        with pytest.raises(ValueError):
            clock.time_at(1 * units.MS)

    def test_reading_slightly_before_rebase_clamps(self):
        clock = self.make()
        clock.step(10 * units.MS, 1000.0)
        near = clock.time_at(10 * units.MS - units.NS)
        assert near == pytest.approx(clock.time_at(10 * units.MS), abs=1)

    def test_continuity_across_slew(self):
        clock = self.make(13.0)
        t = 2 * units.MS
        before = clock.time_at(t)
        clock.slew(t, -50e-6)
        assert clock.time_at(t) == pytest.approx(before, abs=1)
