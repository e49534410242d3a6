"""Unit tests for the experiment harness utilities."""

import pytest

from repro.experiments import fig6_ptp
from repro.experiments.ablations import run_asymmetry_ablation
from repro.experiments.bounds import BoundsConfig, run_hop_scaling
from repro.experiments.convergence import run_ptp_convergence
from repro.experiments.fig6_ptp import Fig6PtpConfig, run_fig6_ptp
from repro.experiments.harness import (
    ExperimentResult,
    TimeSeries,
    histogram,
    peak_after,
    steps,
)
from repro.experiments.sweeps import sweep_ber
from repro.sim import units
from repro.sim.engine import Simulator


class TestTimeSeries:
    def make(self):
        series = TimeSeries(label="x")
        for i, v in enumerate([1.0, -5.0, 3.0, 2.0]):
            series.append(i, v)
        return series

    def test_append_and_len(self):
        assert len(self.make()) == 4

    def test_min_max(self):
        series = self.make()
        assert series.min() == -5.0
        assert series.max() == 3.0
        assert series.max_abs() == 5.0

    def test_tail(self):
        tail = self.make().tail(0.5)
        assert tail.values == [3.0, 2.0]
        assert tail.label == "x"

    def test_percentile(self):
        series = self.make()
        assert series.percentile_abs(0.0) == 1.0
        assert series.percentile_abs(0.99) == 5.0

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries(label="e").percentile_abs(0.5)


class TestExperimentResult:
    def test_render_includes_summary(self):
        series = TimeSeries(label="a")
        series.append(0, 1.0)
        result = ExperimentResult(
            name="t", params={"p": 1}, series=[series], summary={"k": "v"}
        )
        text = result.render()
        assert "=== t ===" in text
        assert "p=1" in text
        assert "k = v" in text

    def test_render_empty_series(self):
        result = ExperimentResult(name="t", series=[TimeSeries(label="a")])
        assert "(empty)" in result.render()


def _ticker(sim, period_fs):
    """A self-rescheduling event: the engine has work at every period."""
    def tick():
        sim.schedule(period_fs, tick)

    sim.schedule(0, tick)


class TestSteps:
    def test_grid_overshoots_until(self, sim):
        sim.run_until(units.US)
        times = list(steps(sim, 3 * units.US, 8 * units.US))
        # 1 + 3k us until a time reaches 8 us: the last one passes it.
        assert times == [4 * units.US, 7 * units.US, 10 * units.US]
        assert sim.now == 10 * units.US

    def test_exact_grid_stops_at_until(self, sim):
        assert list(steps(sim, units.US, 3 * units.US)) == [
            units.US, 2 * units.US, 3 * units.US,
        ]

    def test_stepping_schedules_no_event(self):
        stepped, direct = Simulator(), Simulator()
        for engine in (stepped, direct):
            _ticker(engine, 7 * units.US)
        for _t in steps(stepped, 5 * units.US, 100 * units.US):
            pass
        direct.run_until(stepped.now)
        assert stepped._seq == direct._seq
        assert [entry[:2] for entry in sorted(stepped._queue)] == [
            entry[:2] for entry in sorted(direct._queue)
        ]

    def test_empty_window_raises(self, sim):
        sim.run_until(5 * units.US)
        with pytest.raises(ValueError, match="now=5000000000 fs.*until_fs=5000000000"):
            next(steps(sim, units.US, 5 * units.US))
        with pytest.raises(ValueError, match="no sample"):
            next(steps(sim, units.US, 0))


class TestPeakAfter:
    def test_max_of_samples(self):
        assert peak_after(iter([3.0, -1.0, 7.5]), 0, 10) == 7.5

    def test_nothing_past_warmup_raises(self):
        with pytest.raises(ValueError, match="warmup_fs=9.*until_fs=10"):
            peak_after(iter([]), 9, 10)


#: Runs whose window holds no sample (or none past the warmup).
EMPTY_WINDOWS = {
    "dtp-ablation": lambda: run_asymmetry_ablation(duration_fs=0),
    "dtp-sweep": lambda: sweep_ber(bers=[0.0], duration_fs=0),
    "dtp-warmup-past-the-run": lambda: run_hop_scaling(
        BoundsConfig(max_hops=2, duration_fs=1000, warmup_fs=10**9)
    ),
    "ptp-run-shorter-than-warmup": lambda: run_fig6_ptp(
        Fig6PtpConfig(duration_fs=fig6_ptp.WARMUP_FS // 2)
    ),
    "ptp-convergence": lambda: run_ptp_convergence(duration_fs=0),
}


@pytest.mark.parametrize("run", EMPTY_WINDOWS.values(), ids=EMPTY_WINDOWS.keys())
def test_a_run_that_takes_no_sample_fails(run):
    """An empty window is an error, never a passing 0."""
    with pytest.raises(ValueError, match="no sample"):
        run()


class TestHistogram:
    def test_pdf_normalized(self):
        pdf = histogram([0, 0, 1, 1, 1, 2])
        assert pdf[0] == pytest.approx(2 / 6)
        assert pdf[1] == pytest.approx(3 / 6)
        assert sum(pdf.values()) == pytest.approx(1.0)

    def test_empty(self):
        assert histogram([]) == {}

    def test_bin_width(self):
        pdf = histogram([0.0, 0.4, 1.6], bin_width=2.0)
        assert pdf[0.0] == pytest.approx(2 / 3)
        assert pdf[2.0] == pytest.approx(1 / 3)

