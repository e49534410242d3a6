"""The insight run report: campaign scan, determinism, campaign wiring."""

from repro.cli import main as repro_main
from repro.faultlab import builtin_specs, run_campaign
from repro.insight import generate_insight_report
from repro.insight.report import _metrics_section
from repro.ioutil import ARTIFACT_KINDS, artifact_path, scan_rundir
from repro.telemetry import TraceIndex
from repro.telemetry.events import EV_JUMP

SCENARIOS = ["baseline", "two-faced"]


def _run_campaign(directory, jobs=1, profile=False):
    run_campaign(
        builtin_specs(SCENARIOS, quick=True),
        base_seed=0,
        jobs=jobs,
        trace_dir=str(directory),
        metrics_dir=str(directory),
        flight_dir=str(directory),
        profile_dispatch=profile,
    )


def test_scan_rundir(tmp_path):
    _run_campaign(tmp_path)
    scanned = scan_rundir(str(tmp_path))
    assert sorted(scanned) == SCENARIOS
    assert set(scanned["baseline"]) == {"trace", "metrics", "prom"}
    assert set(scanned["two-faced"]) == {"trace", "metrics", "prom", "flight", "insight"}
    assert scan_rundir(str(tmp_path / "missing")) == {}
    # Every kind its writer names comes back under its scenario, dotted and
    # glob-special names included.
    every = tmp_path / "every"
    every.mkdir()
    expected = {}
    for scenario in ("a", "b.prom", "c[1]"):
        for kind in ARTIFACT_KINDS:
            path = artifact_path(str(every), scenario, kind)
            (every / path).write_text("{}\n")
            expected.setdefault(scenario, {})[kind] = path
    (every / "slo_scorecard.md").write_text("not an artifact\n")
    assert scan_rundir(str(every)) == expected


def test_failure_flight_suffix_not_misfiled(tmp_path):
    (tmp_path / "x.failure.flight.jsonl").write_text("{}\n")
    scanned = scan_rundir(str(tmp_path))
    assert scanned == {"x": {"failure_flight": str(tmp_path / "x.failure.flight.jsonl")}}


def test_health_or_insight_alone_make_no_section(tmp_path):
    _run_campaign(tmp_path)
    report = generate_insight_report(str(tmp_path))
    (tmp_path / "campaign.health.jsonl").write_text("{}\n")
    (tmp_path / "lonely.insight.md").write_text("# insight\n")
    assert generate_insight_report(str(tmp_path)) == report


def test_report_on_a_missing_directory_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert repro_main(["insight", "report", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"insight report: no such directory: {missing}\n"


def test_report_sections(tmp_path, capsys):
    _run_campaign(tmp_path)
    report = generate_insight_report(str(tmp_path))
    assert report.startswith("# repro.insight run report")
    assert "scenarios: baseline, two-faced" in report
    assert "### Bound decomposition" in report
    assert "### Offset timeline" in report
    assert "### Violation post-mortem" in report
    assert "causal beacon chain" in report
    assert "### Metrics summary" in report
    assert "beacon cadence" in report and "plausible" in report
    # The report must not embed the directory path: CI diffs reports
    # generated from differently-named artifact trees.
    assert str(tmp_path) not in report
    # The same analyses through the command line.
    assert repro_main(["insight", "report", str(tmp_path)]) == 0
    assert capsys.readouterr().out == report
    flight = str(tmp_path / "two-faced.flight.jsonl")
    assert repro_main(["insight", "explain", flight]) == 0
    assert "causal beacon chain" in capsys.readouterr().out
    trace = str(tmp_path / "baseline.trace.jsonl")
    assert repro_main(["insight", "timeline", trace]) == 0
    census = TraceIndex.load(trace).describe()
    assert capsys.readouterr().out.splitlines()[: len(census)] == census


def test_explain_index_out_of_range_exits_2(tmp_path, capsys):
    _run_campaign(tmp_path)
    trace = str(tmp_path / "baseline.trace.jsonl")
    jumps = len(TraceIndex.load(trace).of_kind(EV_JUMP))
    assert repro_main(["insight", "explain", trace, "--index", str(jumps)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"insight explain: --index {jumps} is out of range:"
        f" the trace holds {jumps} jumps\n"
    )
    assert repro_main(["insight", "explain", trace, "--index", str(-jumps)]) == 0
    assert capsys.readouterr().out.startswith("causal beacon chain")


def test_report_byte_identical_serial_vs_jobs(tmp_path):
    _run_campaign(tmp_path / "serial", jobs=1)
    _run_campaign(tmp_path / "par", jobs=2)
    serial = generate_insight_report(str(tmp_path / "serial"))
    assert generate_insight_report(str(tmp_path / "par")) == serial


def test_campaign_attaches_insight_summary(tmp_path):
    _run_campaign(tmp_path)
    path = tmp_path / "two-faced.insight.md"
    assert path.exists(), "violating scenario did not get an insight summary"
    text = path.read_text()
    assert text.startswith("# insight: two-faced post-mortem")
    assert "causal beacon chain" in text
    # Fault-free baseline records no violation, hence no summary.
    assert not (tmp_path / "baseline.insight.md").exists()


def test_dispatch_profile_section(tmp_path):
    _run_campaign(tmp_path, profile=True)
    report = generate_insight_report(str(tmp_path))
    assert "### Engine dispatch profile" in report
    assert "DtpPort._process" in report
    assert "%" in report
    # Wall-clock only with the explicit opt-in flag.
    assert "wall-clock durations" not in report
    walled = generate_insight_report(str(tmp_path), wallclock=True)
    assert "wall-clock durations" in walled


def test_empty_directory_report(tmp_path):
    report = generate_insight_report(str(tmp_path))
    assert "no telemetry artifacts found" in report


def test_metrics_section_cadence_math():
    doc = {
        "digest": "d",
        "metrics": {
            "dtp_messages_sent_total": {
                "samples": {
                    '{port="n0->n1",type="BEACON"}': 100,
                    '{port="n1->n0",type="BEACON"}': 100,
                    '{port="n0->n1",type="BEACON_MSB"}': 5,
                    '{port="n0->n1",type="INIT"}': 1,
                }
            },
            "dtp_messages_received_total": {"samples": {}},
        },
    }
    period_fs = 6_400_000
    span_fs = 100 * 200 * period_fs  # exactly 100 beacon intervals
    lines = _metrics_section(doc, span_fs, period_fs)
    text = "\n".join(lines)
    assert "beacons sent: 200 across 2 directions" in text
    assert "~100/direction observed vs ~100 expected" in text
    assert "-> plausible" in text
