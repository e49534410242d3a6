"""The insight run report: one markdown artifact per campaign directory.

:func:`generate_insight_report` scans a run directory
(:func:`repro.ioutil.scan_rundir`) and renders, per scenario with a trace,
metrics, flight, snapshot or SLO artifact:

* trace accounting and the event-kind census,
* per-link bound-decomposition scorecards over the fault-free interval,
* an ASCII offset timeline reconstructed purely from the trace,
* the causal explanation of any recorded violation (from the flight dump),
* a metrics summary (beacon/message counters vs the Table 2 cadence),
* the engine dispatch profile (top-K callback categories), when the run
  was profiled.

Everything in the default report derives from sim time and seeds, so two
same-seed campaign directories render **byte-identical reports** — serial
or ``--jobs N`` — which ``tests/test_insight_report.py`` compares.
Wall-clock data (digest-excluded by the PR-3 rules) only appears with
``wallclock=True``, which is deliberately never used by the determinism
tests.  The report never embeds the directory path itself, so artifact
trees written to different locations still compare equal.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from ..experiments.asciiplot import render_series
from ..experiments.harness import TimeSeries
from ..ioutil import scan_rundir
from ..phy.specs import PHY_10G
from ..telemetry import load_flight
from ..telemetry.index import TraceIndex
from .causal import explain_flight
from .decompose import (
    decompose_links,
    fault_free_end_fs,
    scorecard_rows,
)
from .timeline import reconstruct_timeline

#: Dispatch categories shown in the engine dispatch profile.
TOP_K = 8

#: The artifact kinds a scenario section reads: a scenario with none of
#: them (a health channel, an insight summary) gets no section.
_REPORTED = (
    "trace", "metrics", "prom", "flight", "failure_flight", "snapshots", "slo",
)


def _builtin_spec(scenario: str) -> Optional[Dict[str, object]]:
    """The builtin spec for a scenario name, for its fault-free window.

    Fault start times and pinned skews are identical between the quick and
    full profiles, which is all the decomposition reads from the spec.
    """
    from ..faultlab.scenarios import BUILTIN_SCENARIOS

    builder = BUILTIN_SCENARIOS.get(scenario)
    return builder(True) if builder is not None else None


# ----------------------------------------------------------------------
# Metrics helpers
# ----------------------------------------------------------------------
def _load_metrics(path: str) -> Dict[str, object]:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _family_samples(metrics: Dict[str, object], family: str) -> Dict[str, int]:
    entry = metrics.get(family)
    if not isinstance(entry, dict):
        return {}
    samples = entry.get("samples", {})
    return {
        key: value for key, value in samples.items() if isinstance(value, int)
    }


def _sum_where(samples: Dict[str, int], needle: str = "") -> int:
    return sum(value for key, value in samples.items() if needle in key)


def _label_value(key: str, label: str) -> Optional[str]:
    """Extract one label value from a ``{a="x",b="y"}`` sample key."""
    marker = f'{label}="'
    start = key.find(marker)
    if start < 0:
        return None
    start += len(marker)
    end = key.find('"', start)
    return key[start:end] if end > start else None


def _metrics_section(
    metrics_doc: Dict[str, object],
    span_fs: int,
    period_fs: int,
    beacon_interval_ticks: int = 200,
) -> List[str]:
    """Beacon/message counters against the Table 2 cadence expectation."""
    metrics = metrics_doc.get("metrics", {})
    sent = _family_samples(metrics, "dtp_messages_sent_total")
    received = _family_samples(metrics, "dtp_messages_received_total")
    jumps = _family_samples(metrics, "dtp_counter_jumps_total")
    rejected = _family_samples(metrics, "dtp_rejected_total")
    lines = [f"metrics digest: {metrics_doc.get('digest', '?')}"]
    if not sent:
        lines.append("no dtp message counters in the snapshot")
        return lines
    # The closing quote excludes BEACON_MSB / BEACON_JOIN samples.
    beacons_sent = _sum_where(sent, 'type="BEACON"')
    total_sent = sum(sent.values())
    total_received = sum(received.values())
    directions = {
        _label_value(key, "port") for key in sent if 'type="BEACON"' in key
    }
    directions.discard(None)
    lines.append(
        f"messages: {total_sent} sent / {total_received} received;"
        f" beacons sent: {beacons_sent} across {len(directions)} directions"
    )
    if span_fs > 0 and directions:
        expected_per_dir = span_fs // (beacon_interval_ticks * period_fs)
        observed_per_dir = beacons_sent // len(directions)
        plausible = (
            expected_per_dir > 0
            and 2 * observed_per_dir >= expected_per_dir
            and observed_per_dir <= 2 * expected_per_dir
        )
        lines.append(
            f"beacon cadence: ~{observed_per_dir}/direction observed vs"
            f" ~{expected_per_dir} expected at one per"
            f" {beacon_interval_ticks} ticks (Table 2)"
            f" -> {'plausible' if plausible else 'OFF-CADENCE'}"
        )
    lines.append(
        f"counter jumps: {_sum_where(jumps)};"
        f" rejects: {_sum_where(rejected)}"
    )
    return lines


def _dispatch_section(
    metrics_doc: Dict[str, object],
    prom_path: Optional[str] = None,
    wallclock: bool = False,
) -> List[str]:
    """Top-K engine dispatch categories by count (opt-in wall shares)."""
    metrics = metrics_doc.get("metrics", {})
    dispatch = _family_samples(metrics, "sim_dispatch_total")
    if not dispatch:
        return []
    total = sum(dispatch.values())
    by_category = sorted(
        (
            (_label_value(key, "category") or key, count)
            for key, count in dispatch.items()
        ),
        key=lambda item: (-item[1], item[0]),
    )
    wall: Dict[str, float] = {}
    if wallclock and prom_path is not None and os.path.exists(prom_path):
        from ..telemetry.registry import parse_exposition

        with open(prom_path, "r", encoding="utf-8") as handle:
            try:
                samples = parse_exposition(handle.read())
            except Exception:
                samples = {}
        for key, value in samples.items():
            if key.startswith("wallclock_ns"):
                name = _label_value(key, "name")
                if name is not None:
                    wall[name] = value
    lines = [
        f"engine dispatches: {total} total,"
        f" top {min(TOP_K, len(by_category))} categories by count:"
    ]
    for category, count in by_category[:TOP_K]:
        share = 100.0 * count / total if total else 0.0
        lines.append(f"  {category:40s} {count:10d}  {share:5.1f}%")
    if wall:
        lines.append("wall-clock durations (digest-excluded, non-deterministic):")
        for name in sorted(wall):
            lines.append(f"  {name:40s} {wall[name] / 1e6:10.3f} ms")
    elif wallclock:
        lines.append("no wall-clock samples recorded (run with --profile)")
    return lines


def _slo_section(
    verdict: Optional[Dict[str, object]],
    stream: Optional[Dict[str, object]],
) -> List[str]:
    """SLO verdict + snapshot-stream precision summary (both deterministic)."""
    lines: List[str] = []
    if stream is not None:
        final = stream.get("final") or {}
        observe = final.get("observe") or {}
        snapshots = stream.get("snapshots") or []
        lines.append(
            f"snapshot stream: {len(snapshots)} samples,"
            f" observed={observe.get('observed_total', 0)}"
            f" in-bound={observe.get('in_bound_ppm', -1)} ppm"
            f" max|offset|={observe.get('max_offset_units', 0)} units"
        )
        quantiles = observe.get("quantiles_units")
        if quantiles:
            lines.append(
                "offset quantiles (units):"
                f" p50={quantiles.get('p50')} p90={quantiles.get('p90')}"
                f" p99={quantiles.get('p99')} p100={quantiles.get('p100')}"
            )
    if verdict is not None:
        status = "PASS" if verdict.get("pass") else "FAIL"
        lines.append(f"SLO '{verdict.get('slo', '?')}': {status}")
        for objective in verdict.get("objectives", []):
            mark = "ok" if objective.get("pass") else "BREACHED"
            lines.append(
                f"  {objective.get('objective'):32s}"
                f" limit={objective.get('limit')}"
                f" observed={objective.get('observed')}  {mark}"
            )
    return lines


# ----------------------------------------------------------------------
# Report generation
# ----------------------------------------------------------------------
def _scenario_section(
    scenario: str,
    artifacts: Dict[str, str],
    increment: int,
    period_fs: int,
    wallclock: bool,
) -> List[str]:
    lines = [f"## {scenario}", ""]
    spec = _builtin_spec(scenario)

    index: Optional[TraceIndex] = None
    if "trace" in artifacts:
        index = TraceIndex.load(artifacts["trace"])
    elif "flight" in artifacts:
        index = TraceIndex.from_flight(load_flight(artifacts["flight"]))

    span_fs = 0
    if index is not None:
        first, last = index.span_fs
        span_fs = last - first
        lines.append("### Trace")
        lines.append("")
        lines.append("```")
        lines.extend(index.describe())
        lines.append("```")
        lines.append("")

        timeline = reconstruct_timeline(
            index, increment=increment, period_fs=period_fs
        )
        scorecards = decompose_links(
            index,
            spec=spec,
            increment=increment,
            period_fs=period_fs,
            timeline=timeline,
        )
        if scorecards:
            end_fs = fault_free_end_fs(spec) if spec else None
            window = (
                f"fault-free interval (ends t={end_fs} fs)"
                if end_fs is not None
                else "whole run (no faults in spec)"
                if spec is not None
                else "whole trace span (spec unknown)"
            )
            lines.append(f"### Bound decomposition — {window}")
            lines.append("")
            lines.extend(scorecard_rows(scorecards))
            offsets = [
                card.max_reconstructed_offset_ticks
                for card in scorecards
                if card.max_reconstructed_offset_ticks is not None
            ]
            if offsets:
                lines.append("")
                lines.append(
                    f"max reconstructed |offset| in window: {max(offsets)} ticks"
                    " (estimate: +/- 2 ticks of anchor quantization)"
                )
            lines.append("")

            links = timeline.links()
            if links:
                a, b = links[0]
                series = TimeSeries(label=f"{a}-{b} offset (ticks)")
                for t, offset in timeline.offset_series(
                    a, b, timeline.sample_times(100 * period_fs)
                ):
                    series.append(t, offset / increment)
                if series.values:
                    lines.append("### Offset timeline (reconstructed from trace)")
                    lines.append("")
                    lines.append("```")
                    lines.append(render_series(series))
                    lines.append("```")
                    lines.append("")

    if "flight" in artifacts:
        lines.append("### Violation post-mortem")
        lines.append("")
        lines.append("```")
        lines.extend(
            explain_flight(
                load_flight(artifacts["flight"]),
                increment=increment,
                period_fs=period_fs,
            )
        )
        lines.append("```")
        lines.append("")

    if "failure_flight" in artifacts:
        lines.append("### Supervisor failure post-mortem")
        lines.append("")
        lines.append("```")
        lines.extend(
            explain_flight(
                load_flight(artifacts["failure_flight"]),
                increment=increment,
                period_fs=period_fs,
            )
        )
        lines.append("```")
        lines.append("")

    if "slo" in artifacts or "snapshots" in artifacts:
        from ..observe.snapshots import read_snapshots

        verdict = (
            _load_metrics(artifacts["slo"]) if "slo" in artifacts else None
        )
        stream = (
            read_snapshots(artifacts["snapshots"])
            if "snapshots" in artifacts
            else None
        )
        slo_lines = _slo_section(verdict, stream)
        if slo_lines:
            lines.append("### SLO scorecard")
            lines.append("")
            lines.append("```")
            lines.extend(slo_lines)
            lines.append("```")
            lines.append("")

    if "metrics" in artifacts:
        metrics_doc = _load_metrics(artifacts["metrics"])
        lines.append("### Metrics summary")
        lines.append("")
        lines.append("```")
        lines.extend(_metrics_section(metrics_doc, span_fs, period_fs))
        lines.append("```")
        lines.append("")
        dispatch_lines = _dispatch_section(
            metrics_doc,
            prom_path=artifacts.get("prom"),
            wallclock=wallclock,
        )
        if dispatch_lines:
            lines.append("### Engine dispatch profile")
            lines.append("")
            lines.append("```")
            lines.extend(dispatch_lines)
            lines.append("```")
            lines.append("")
    return lines


def generate_insight_report(
    directory: str,
    increment: int = 1,
    period_fs: int = PHY_10G.period_fs,
    wallclock: bool = False,
) -> str:
    """Render the campaign directory as a deterministic markdown report."""
    scenarios = {
        name: artifacts
        for name, artifacts in scan_rundir(directory).items()
        if any(kind in artifacts for kind in _REPORTED)
    }
    lines = ["# repro.insight run report", ""]
    if not scenarios:
        lines.append("no telemetry artifacts found")
        lines.append("")
        return "\n".join(lines)
    names = ", ".join(scenarios)
    lines.append(f"scenarios: {names}")
    lines.append("")
    for scenario, artifacts in scenarios.items():
        lines.extend(
            _scenario_section(scenario, artifacts, increment, period_fs, wallclock)
        )
    return "\n".join(lines).rstrip("\n") + "\n"


def flight_summary_markdown(
    dump,
    increment: int = 1,
    period_fs: int = PHY_10G.period_fs,
) -> str:
    """A standalone insight summary for one flight dump (campaign attach)."""
    scenario = dump.header.get("scenario", "scenario")
    lines = [f"# insight: {scenario} post-mortem", "", "```"]
    lines.extend(explain_flight(dump, increment=increment, period_fs=period_fs))
    lines.append("```")
    index = TraceIndex.from_flight(dump)
    spec = _builtin_spec(str(scenario))
    scorecards = decompose_links(
        index, spec=spec, increment=increment, period_fs=period_fs
    )
    if scorecards:
        lines.append("")
        lines.append("## Bound decomposition (buffered trace tail)")
        lines.append("")
        lines.extend(scorecard_rows(scorecards))
    return "\n".join(lines) + "\n"


def _offset_points(
    timeline, a: str, b: str, period_fs: int
) -> List[Tuple[int, int]]:
    """Convenience for tests: the plotted offset samples for a pair."""
    return timeline.offset_series(a, b, timeline.sample_times(100 * period_fs))


def describe_timeline(
    index: TraceIndex,
    increment: int = 1,
    period_fs: int = PHY_10G.period_fs,
    pair: Optional[Tuple[str, str]] = None,
) -> List[str]:
    """Text timeline summary for the CLI: ports, jumps, owd, offsets."""
    timeline = reconstruct_timeline(index, increment=increment, period_fs=period_fs)
    lines = []
    for name in sorted(timeline.ports):
        port = timeline.ports[name]
        d = port.measured_d()
        gaps = port.beacon_intervals_fs()
        max_gap = max(gaps) // period_fs if gaps else 0
        lines.append(
            f"{name:12s} d={d // increment if d is not None else '?':>3} ticks"
            f"  beacons_rx={len(port.beacon_rx_times):5d}"
            f"  jumps={len(port.jumps):4d}"
            f"  max_beacon_gap={max_gap} ticks"
        )
        for time_fs, _delta, applied, cause in port.jumps[-3:]:
            lines.append(
                f"    t={time_fs} jump {applied // increment:+d} ticks ({cause})"
            )
    pairs = [pair] if pair is not None else timeline.links()
    for a, b in pairs:
        points = _offset_points(timeline, a, b, period_fs)
        if not points:
            lines.append(f"{a}-{b}: no overlapping anchors to reconstruct offsets")
            continue
        values = [offset // increment for _t, offset in points]
        lines.append(
            f"{a}-{b} reconstructed offset (ticks):"
            f" n={len(values)} min={min(values)} max={max(values)}"
        )
        series = TimeSeries(label=f"{a}-{b} offset (ticks)")
        for t, offset in points:
            series.append(t, offset / increment)
        lines.append(render_series(series))
    return lines
