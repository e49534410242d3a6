"""Shared experiment infrastructure: results, series, renderers.

Every experiment module returns an :class:`ExperimentResult` holding the
time series the paper plots plus a summary dict, and can render itself as
the text table/rows the benchmark harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence



@dataclass
class TimeSeries:
    """One labelled series (e.g. one node pair's offsets over time)."""

    label: str
    times_fs: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, t_fs: int, value: float) -> None:
        self.times_fs.append(t_fs)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def min(self) -> float:
        return min(self.values)

    def max(self) -> float:
        return max(self.values)

    def max_abs(self) -> float:
        return max(abs(v) for v in self.values)

    def tail(self, fraction: float = 0.5) -> "TimeSeries":
        """The last ``fraction`` of the series (skips convergence)."""
        start = int(len(self.values) * (1.0 - fraction))
        return TimeSeries(
            label=self.label,
            times_fs=self.times_fs[start:],
            values=self.values[start:],
        )

    def percentile_abs(self, q: float) -> float:
        ordered = sorted(abs(v) for v in self.values)
        if not ordered:
            raise ValueError(f"series {self.label!r} is empty")
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    series: List[TimeSeries] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable report: params, per-series stats, summary."""
        lines = [f"=== {self.name} ==="]
        if self.params:
            lines.append(
                "params: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            )
        for s in self.series:
            if not s.values:
                lines.append(f"  {s.label:16s}  (empty)")
                continue
            lines.append(
                f"  {s.label:16s}  n={len(s):6d}  min={s.min():10.2f}  "
                f"max={s.max():10.2f}  p99.9(|.|)={s.percentile_abs(0.999):10.2f}"
            )
        for key, value in sorted(self.summary.items()):
            lines.append(f"  {key} = {value}")
        return "\n".join(lines)


class PeriodicSampler:
    """Calls a probe on a fixed simulated cadence and stores the values.

    The probe runs as simulation events, so clocks are always sampled
    *during* the run (disciplined clocks cannot be read retroactively).
    """

    def __init__(
        self,
        sim,
        interval_fs: int,
        probe: Callable[[int], Dict[str, float]],
        start_fs: int = 0,
    ) -> None:
        self.sim = sim
        self.interval_fs = interval_fs
        self.probe = probe
        self.series: Dict[str, TimeSeries] = {}
        sim.schedule_at(max(start_fs, sim.now), self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        for label, value in self.probe(now).items():
            series = self.series.get(label)
            if series is None:
                series = TimeSeries(label=label)
                self.series[label] = series
            series.append(now, value)
        self.sim.schedule(self.interval_fs, self._tick)

    def all_series(self) -> List[TimeSeries]:
        return [self.series[key] for key in sorted(self.series)]


def histogram(values: Sequence[float], bin_width: float = 1.0) -> Dict[float, float]:
    """Normalized histogram (a PDF over bins), as in the paper's Figure 6c."""
    if not values:
        return {}
    counts: Dict[float, int] = {}
    for value in values:
        bin_center = round(value / bin_width) * bin_width
        counts[bin_center] = counts.get(bin_center, 0) + 1
    total = len(values)
    return {center: count / total for center, count in sorted(counts.items())}


def write_telemetry_artifacts(
    name: str,
    telemetry,
    trace_dir: str = None,
    metrics_dir: str = None,
) -> List[str]:
    """Write one experiment run's telemetry artifacts; returns status lines.

    ``<trace_dir>/<name>.trace.jsonl`` holds the canonical trace;
    ``<metrics_dir>/<name>.metrics.json`` the digest-stable snapshot and
    ``<metrics_dir>/<name>.prom`` the Prometheus text exposition.  All
    content is derived from sim time and seeds, so two same-seed runs write
    byte-identical files.
    """
    # Imported on use: an experiment that writes no artifacts never loads
    # the campaign runner.
    from ..faultlab.campaign import write_telemetry

    if telemetry is None:
        return []
    written = write_telemetry(name, telemetry, trace_dir, metrics_dir)
    lines: List[str] = []
    if "trace" in written:
        lines.append(
            f"wrote {written['trace']} ({len(telemetry.tracer)} records,"
            f" {telemetry.tracer.dropped} dropped)"
        )
    if "metrics" in written:
        lines.append(
            f"wrote {written['metrics']}"
            f" (digest {telemetry.metrics_digest()[:12]})"
        )
        lines.append(f"wrote {written['prom']}")
    return lines

