"""Shared experiment infrastructure: results, series, renderers.

Every experiment module returns an :class:`ExperimentResult` holding the
time series the paper plots plus a summary dict, and can render itself as
the text table/rows the benchmark harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence

from ..sim import units


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


def steps(sim, every_fs: int, until_fs: int) -> Iterator[int]:
    """Advance ``sim`` on the grid ``now + k * every_fs`` and yield each time.

    This is every experiment's sample set: the caller reads state after each
    ``run_until``, so sampling schedules no event.  The grid stops at the
    first time that reaches ``until_fs``, which may pass it.  A window that
    holds no grid time is an error, not an empty (and so passing) run.
    """
    start = sim.now
    count = -(-(until_fs - start) // every_fs)
    if count <= 0:
        raise ValueError(
            f"no sample to take: now={start} fs is not before until_fs={until_fs} fs"
        )
    for k in range(1, count + 1):
        t = start + k * every_fs
        sim.run_until(t)
        yield t


def peak_after(values: Iterable[float], warmup_fs: int, until_fs: int) -> float:
    """``max(values)`` over the samples a warmup filter let through.

    A warmup that leaves no sample is an error: a maximum over nothing
    would read as a perfect run.
    """
    worst = max(values, default=None)
    if worst is None:
        raise ValueError(
            f"no sample after the warmup: warmup_fs={warmup_fs} leaves none"
            f" before until_fs={until_fs}"
        )
    return worst


def worst_offset(net, until_fs: int) -> int:
    """The largest ``net.max_abs_offset()`` over :func:`steps` to ``until_fs``,
    every 20 us (about 16 BEACON intervals of the default 200 ticks)."""
    return max(net.max_abs_offset() for _t in steps(net.sim, 20 * units.US, until_fs))


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

