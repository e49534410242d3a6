"""Unit and property tests for oscillator models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.oscillator import (
    IEEE_8023_PPM_LIMIT,
    CompositeSkew,
    ConstantSkew,
    Oscillator,
    RandomWalkSkew,
    SkewModel,
)
from repro.sim import units
from tests.equivalence_models import SinusoidalSkew

TICK = units.TICK_10G_FS


def make_osc(ppm=0.0, **kwargs):
    return Oscillator(TICK, ConstantSkew(ppm), **kwargs)


class TestSkewModels:
    def test_constant_skew(self):
        skew = ConstantSkew(37.5)
        assert skew.ppm_at(0) == 37.5
        assert skew.ppm_at(10**15) == 37.5

    def test_sinusoidal_skew_oscillates_around_mean(self):
        skew = SinusoidalSkew(mean_ppm=10.0, amplitude_ppm=5.0, period_fs=units.SEC)
        values = [skew.ppm_at(t * units.MS) for t in range(0, 1000, 10)]
        assert min(values) == pytest.approx(5.0, abs=0.1)
        assert max(values) == pytest.approx(15.0, abs=0.1)

    def test_sinusoidal_rejects_bad_period(self):
        with pytest.raises(ValueError):
            SinusoidalSkew(0.0, 1.0, period_fs=0)

    def test_random_walk_is_deterministic_per_seed(self):
        a = RandomWalkSkew(0.0, seed=3)
        b = RandomWalkSkew(0.0, seed=3)
        times = [i * units.MS for i in range(50)]
        assert [a.ppm_at(t) for t in times] == [b.ppm_at(t) for t in times]

    def test_random_walk_is_pure_function_of_time(self):
        walk = RandomWalkSkew(0.0, seed=4)
        late = walk.ppm_at(100 * units.MS)
        early = walk.ppm_at(1 * units.MS)
        assert walk.ppm_at(100 * units.MS) == late
        assert walk.ppm_at(1 * units.MS) == early

    def test_random_walk_respects_excursion_limit(self):
        walk = RandomWalkSkew(0.0, step_ppm=1.0, max_excursion_ppm=2.0, seed=5)
        values = [walk.ppm_at(i * units.MS) for i in range(2000)]
        assert all(-2.0 <= v <= 2.0 for v in values)

    def test_composite_skew_sums(self):
        combined = ConstantSkew(5.0) + ConstantSkew(-3.0)
        assert isinstance(combined, CompositeSkew)
        assert combined.ppm_at(0) == pytest.approx(2.0)


class TestOscillator:
    def test_no_edges_before_first_period(self):
        osc = make_osc(0.0)
        assert osc.ticks_at(TICK - 1) == 0
        assert osc.ticks_at(TICK) == 1

    def test_nominal_tick_count_over_one_ms(self):
        osc = make_osc(0.0)
        assert osc.ticks_at(units.MS) == units.MS // TICK

    def test_fast_oscillator_ticks_more(self):
        fast = make_osc(IEEE_8023_PPM_LIMIT)
        slow = make_osc(-IEEE_8023_PPM_LIMIT)
        t = 100 * units.MS
        diff = fast.ticks_at(t) - slow.ticks_at(t)
        expected = (t // TICK) * 2 * IEEE_8023_PPM_LIMIT * 1e-6
        assert diff == pytest.approx(expected, rel=0.01)

    def test_ticks_monotonic(self):
        osc = make_osc(50.0)
        previous = 0
        for t in range(0, 20 * units.MS, 777_777):
            current = osc.ticks_at(t)
            assert current >= previous
            previous = current

    def test_next_edge_after_is_strictly_later(self):
        osc = make_osc(-20.0)
        t = 0
        for _ in range(100):
            edge = osc.next_edge_after(t)
            assert edge > t
            t = edge

    def test_next_edge_increments_count_by_one(self):
        osc = make_osc(10.0)
        t = 5 * units.MS
        edge = osc.next_edge_after(t)
        assert osc.ticks_at(edge) == osc.ticks_at(t) + 1

    def test_time_of_tick_roundtrip(self):
        osc = make_osc(33.0)
        for n in (1, 2, 100, 12345, 500_000):
            assert osc.ticks_at(osc.time_of_tick(n)) == n

    def test_time_of_tick_rejects_zero(self):
        with pytest.raises(ValueError):
            make_osc().time_of_tick(0)

    def test_query_before_origin_rejected(self):
        osc = Oscillator(TICK, ConstantSkew(0.0), origin_fs=units.MS)
        with pytest.raises(ValueError):
            osc.ticks_at(0)

    def test_backward_queries_supported(self):
        osc = make_osc(5.0)
        late = osc.ticks_at(50 * units.MS)
        early = osc.ticks_at(1 * units.MS)
        assert osc.ticks_at(50 * units.MS) == late
        assert osc.ticks_at(1 * units.MS) == early

    def test_period_at_reflects_skew(self):
        fast = make_osc(IEEE_8023_PPM_LIMIT)
        assert fast.time_of_tick(2) - fast.time_of_tick(1) < TICK

    def test_update_interval_must_cover_period(self):
        with pytest.raises(ValueError):
            Oscillator(TICK, ConstantSkew(0.0), update_interval_fs=TICK // 2)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            Oscillator(0)

    def test_drifting_oscillator_keeps_exact_counts(self):
        osc = Oscillator(
            TICK,
            SinusoidalSkew(0.0, IEEE_8023_PPM_LIMIT, period_fs=10 * units.MS),
            update_interval_fs=units.MS,
        )
        # Count ticks two ways: cumulative query vs edge walking.
        t = 0
        walked = 0
        while t < 2 * units.MS:
            t = osc.next_edge_after(t)
            walked += 1
        assert osc.ticks_at(t) == walked


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


@given(
    ppm=st.floats(min_value=-100.0, max_value=100.0),
    t=st.integers(min_value=0, max_value=10 * units.MS),
)
@settings(max_examples=50, deadline=None)
def test_property_tick_count_within_ppm_envelope(ppm, t):
    """Realized tick count never strays beyond the +/-100 ppm envelope."""
    osc = Oscillator(TICK, ConstantSkew(ppm))
    ticks = osc.ticks_at(t)
    nominal = t / TICK
    assert nominal * (1 - 2e-4) - 1 <= ticks <= nominal * (1 + 2e-4) + 1


#: Skews whose period changes at every update: drifting models with swings
#: of up to 100 ppm across a few segments, and a constant one.
_SKEWS = st.one_of(
    st.builds(ConstantSkew, st.floats(-100.0, 100.0)),
    st.builds(
        SinusoidalSkew,
        mean_ppm=st.floats(-50.0, 50.0),
        amplitude_ppm=st.floats(0.0, 50.0),
        period_fs=st.integers(2 * TICK, 200 * TICK),
        phase=st.floats(0.0, 6.3),
    ),
    st.builds(
        RandomWalkSkew,
        mean_ppm=st.floats(-50.0, 50.0),
        step_ppm=st.floats(0.0, 40.0),
        step_interval_fs=st.integers(TICK, 20 * TICK),
        max_excursion_ppm=st.floats(0.0, 50.0),
        seed=st.integers(0, 2**16),
    ),
)


@given(
    skew=_SKEWS,
    update_interval_fs=st.integers(TICK, 8 * TICK),
    ticks=st.lists(st.integers(min_value=1, max_value=20_000), min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_property_time_of_tick_inverts_ticks_at(skew, update_interval_fs, ticks):
    """``ticks_at(time_of_tick(n)) == n`` on segments a few periods long: the
    batched backend's stages fire on a tick index they carry and never read
    it back.  One oscillator answers the drawn indices in drawn order (warm,
    non-monotonic caches); a fresh one per index answers from cold."""
    warm = Oscillator(TICK, skew, update_interval_fs=update_interval_fs)
    for n in ticks:
        t = warm.time_of_tick(n)
        assert warm.ticks_at(t) == n
        assert warm.ticks_at(t - 1) == n - 1
        cold = Oscillator(TICK, skew, update_interval_fs=update_interval_fs)
        assert cold.ticks_at(t) == n
        assert cold.time_of_tick(n) == t
        assert cold.edge_index_after(t - 1) == n
    # The first edge of every segment the queries built: where a period
    # change would break the identity.
    for segment in warm._segments:
        n = segment.start_count + 1
        assert warm.ticks_at(warm.time_of_tick(n)) == n


def test_faster_period_puts_the_first_edge_on_the_update_instant():
    # 0 ppm for the first segment, +100 ppm after: the segment ends 100 fs
    # before edge 4 would at the old period, and edge 3 + the new period
    # (640 fs shorter) falls before that end.  The edge lands on the update
    # instant, where ticks_at counts it.
    class Step(SkewModel):
        def ppm_at(self, t_fs):
            return 0.0 if t_fs < 4 * TICK - 100 else 100.0

    osc = Oscillator(TICK, Step(), update_interval_fs=4 * TICK - 100)
    assert osc.time_of_tick(3) == 3 * TICK
    assert osc.time_of_tick(4) == 4 * TICK - 100
    assert osc.ticks_at(4 * TICK - 101) == 3
    assert osc.ticks_at(4 * TICK - 100) == 4
    assert osc.time_of_tick(5) - osc.time_of_tick(4) == units.period_fs_for_ppm(TICK, 100.0)
