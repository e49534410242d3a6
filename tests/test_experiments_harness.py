"""Unit tests for the experiment harness utilities."""

import pytest

from repro.experiments.harness import (
    ExperimentResult,
    PeriodicSampler,
    TimeSeries,
    histogram,
)
from repro.sim import units


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


class TestPeriodicSampler:
    def test_samples_on_cadence(self, sim):
        sampler = PeriodicSampler(
            sim, interval_fs=units.MS, probe=lambda now: {"t": now}
        )
        sim.run_until(5 * units.MS)
        series = sampler.series["t"]
        assert series.times_fs == [0, units.MS, 2 * units.MS, 3 * units.MS, 4 * units.MS, 5 * units.MS]

    def test_start_offset(self, sim):
        sampler = PeriodicSampler(
            sim, interval_fs=units.MS, probe=lambda now: {"t": 1.0},
            start_fs=3 * units.MS,
        )
        sim.run_until(5 * units.MS)
        assert len(sampler.series["t"]) == 3

    def test_all_series_sorted(self, sim):
        sampler = PeriodicSampler(
            sim, interval_fs=units.MS, probe=lambda now: {"b": 1.0, "a": 2.0}
        )
        sim.run_until(units.MS)
        assert [s.label for s in sampler.all_series()] == ["a", "b"]


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

