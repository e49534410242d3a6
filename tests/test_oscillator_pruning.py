"""Tests for the oscillator's segment-pruning window and its O(log)
``time_of_tick(ticks_at(t) + k)`` step over ``k`` edges.

Pruning bounds the segment list's memory on long runs; cumulative tick
counts are carried in each segment, so every *forward* query must return
exactly what an unpruned oscillator returns, while queries behind the
pruned horizon must raise instead of silently extrapolating.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.oscillator import ConstantSkew, Oscillator, RandomWalkSkew
from repro.sim import units

TICK = units.TICK_10G_FS


def _pair(window):
    """An unpruned and a pruned oscillator over the same skew process."""
    plain = Oscillator(TICK, RandomWalkSkew(0.0, seed=11))
    pruned = Oscillator(
        TICK, RandomWalkSkew(0.0, seed=11), prune_window_segments=window
    )
    return plain, pruned


class TestPruningWindow:
    def test_rejects_window_below_two(self):
        with pytest.raises(ValueError):
            Oscillator(TICK, ConstantSkew(0.0), prune_window_segments=1)

    def test_forward_queries_identical_to_unpruned(self):
        plain, pruned = _pair(window=4)
        # March far enough that dozens of segments are created and pruned;
        # every forward query must agree bit-for-bit.
        for ms in range(1, 60, 3):
            t = ms * units.MS + 137
            assert pruned.ticks_at(t) == plain.ticks_at(t)
            assert pruned.next_edge_after(t) == plain.next_edge_after(t)
            n = plain.ticks_at(t)
            assert pruned.time_of_tick(n) == plain.time_of_tick(n)

    def test_segment_list_stays_bounded(self):
        _, pruned = _pair(window=4)
        pruned.ticks_at(200 * units.MS)
        assert len(pruned._segments) <= 4
        assert pruned.pruned_before_fs > 0

    def test_backward_time_query_raises_past_horizon(self):
        _, pruned = _pair(window=3)
        pruned.ticks_at(50 * units.MS)
        with pytest.raises(ValueError, match="pruned horizon"):
            pruned.ticks_at(0)

    def test_backward_tick_query_raises_past_horizon(self):
        _, pruned = _pair(window=3)
        pruned.ticks_at(50 * units.MS)
        with pytest.raises(ValueError, match="pruned horizon"):
            pruned.time_of_tick(1)

    def test_unpruned_still_supports_backward_queries(self):
        plain, _ = _pair(window=2)
        plain.ticks_at(50 * units.MS)
        assert plain.ticks_at(0) == 0
        assert plain.time_of_tick(1) == plain.next_edge_after(0)


class TestTimeAfterTicks:
    @settings(max_examples=80, deadline=None)
    @given(
        t=st.integers(min_value=0, max_value=5 * units.MS),
        ticks=st.integers(min_value=1, max_value=400),
        ppm=st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_matches_iterated_next_edge(self, t, ticks, ppm):
        # The O(log segments) closed form must agree with the definition:
        # iterating next_edge_after `ticks` times.
        osc = Oscillator(TICK, ConstantSkew(ppm))
        fast = osc.time_of_tick(osc.ticks_at(t) + ticks)
        reference = t
        for _ in range(ticks):
            reference = osc.next_edge_after(reference)
        assert fast == reference

    def test_crosses_segment_boundaries(self):
        osc = Oscillator(TICK, RandomWalkSkew(0.0, seed=7))
        # One update interval is 1 ms => ~156k ticks; stepping 400k ticks
        # spans several segments with different periods.
        t = osc.time_of_tick(osc.ticks_at(123) + 400_000)
        assert osc.ticks_at(t) == osc.ticks_at(123) + 400_000
        # An edge time: the previous femtosecond holds one fewer tick.
        assert osc.ticks_at(t - 1) == osc.ticks_at(t) - 1
