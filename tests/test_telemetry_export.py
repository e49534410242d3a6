"""Exporters, flight recorder, ``insight export``, and cross-process determinism."""

import json

import pytest

from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp
from repro.experiments.parallel import ExperimentTask, run_tasks
from repro.faultlab.campaign import run_scenario
from repro.faultlab.scenarios import builtin_specs
from repro.network.topology import star
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry import Telemetry, TraceIndex, load_flight
from repro.telemetry.events import EV_TX
from repro.telemetry.export import (
    chrome_trace_events,
    trace_digest,
    write_chrome_trace,
    write_metrics_json,
    write_trace_jsonl,
)
from tests.conftest import file_sha256


def run_fig6a_traced_digests(duration_fs=1 * units.MS, seed=1):
    """Run a short traced Fig. 6a slice and return its telemetry digests.

    Module-level (hence picklable): the determinism test runs it both
    serially and through the parallel experiment runner.
    """
    telemetry = Telemetry()
    config = Fig6DtpConfig(
        frame_name="mtu",
        duration_fs=duration_fs,
        warmup_fs=min(duration_fs // 4, 2 * units.MS),
        seed=seed,
    )
    run_fig6_dtp(config, telemetry=telemetry)
    return {
        "trace_digest": telemetry.trace_digest(),
        "metrics_digest": telemetry.metrics_digest(),
        "trace_recorded": telemetry.tracer.recorded,
    }


@pytest.fixture(scope="module")
def traced_run():
    telemetry = Telemetry()
    sim = Simulator()
    net = DtpNetwork(
        sim,
        star(2),
        RandomStreams(5),
        config=DtpPortConfig(beacon_interval_ticks=200),
        telemetry=telemetry,
    )
    net.start()
    sim.run_until(300 * units.US)
    return telemetry


class TestJsonl:
    def test_roundtrip(self, traced_run, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        write_trace_jsonl(str(path), traced_run.tracer)
        index = TraceIndex.load(str(path))
        assert index.header["record"] == "trace-header"
        assert index.header["version"] == 1
        assert index.subjects == traced_run.tracer.subjects
        assert index.recorded == traced_run.tracer.recorded
        assert index.records == list(traced_run.tracer.records)

    def test_digest_matches_file_bytes(self, traced_run, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        write_trace_jsonl(str(path), traced_run.tracer)
        assert trace_digest(traced_run.tracer) == file_sha256(str(path))
        assert traced_run.trace_digest() == file_sha256(str(path))

    def test_summarize(self, traced_run, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        write_trace_jsonl(str(path), traced_run.tracer)
        lines = TraceIndex.load(str(path)).describe()
        records = traced_run.tracer.records
        assert lines[0] == (
            f"records: {len(records)} indexed ({len(records)} recorded, 0 dropped)"
        )
        sent = sum(1 for record in records if record[1] == EV_TX)
        assert ["tx", str(sent)] in [line.split() for line in lines]


class TestChromeTrace:
    def test_event_schema(self, traced_run):
        tracer = traced_run.tracer
        events = chrome_trace_events(tracer.records, tracer.subjects)
        # Metadata: one process_name plus one thread_name per subject.
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["name"] == "process_name"
        assert len(meta) == 1 + len(tracer.subjects)
        instants = [e for e in events if e["ph"] != "M"]
        assert len(instants) == len(tracer.records)
        for event in instants:
            assert set(event) >= {"name", "ph", "ts", "pid", "tid"}
            assert event["ph"] == "i"
            assert event["tid"] < len(tracer.subjects)
        # ts is microseconds of the femtosecond sim time.
        first = instants[0]
        assert first["ts"] == first["args"]["time_fs"] / 1e9

    def test_written_file_is_valid_json(self, traced_run, tmp_path):
        tracer = traced_run.tracer
        path = tmp_path / "run.chrome.json"
        write_chrome_trace(str(path), tracer.records, tracer.subjects)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert "traceEvents" in document
        assert len(document["traceEvents"]) == len(tracer.records) + 1 + len(
            tracer.subjects
        )


class TestMetricsArtifact:
    def test_digest_stable_and_wallclock_free(self, traced_run, tmp_path):
        path = tmp_path / "run.metrics.json"
        write_metrics_json(str(path), traced_run)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["digest"] == traced_run.metrics_digest()
        assert "wallclock" not in document
        assert "dtp_messages_sent_total" in document["metrics"]


def _two_faced_spec():
    (spec,) = builtin_specs(["two-faced"], quick=True)
    return spec


class TestFlight:
    def test_violating_scenario_dumps_flight(self, tmp_path):
        result = run_scenario(
            _two_faced_spec(), seed=0, flight_dir=str(tmp_path)
        )
        assert result["violations_total"] > 0
        path = tmp_path / "two-faced.flight.jsonl"
        assert path.exists()
        dump = load_flight(str(path))
        assert dump.header["scenario"] == "two-faced"
        assert dump.header["seed"] == 0
        assert dump.header["trace_tail"] == len(dump.records)
        assert dump.header["metrics_digest"] == result["telemetry"]["metrics_digest"]
        assert dump.context["violation"]["invariant"]
        # The checker's full context at the end of the run, every node in it.
        assert set(dump.context) >= {
            "time_fs", "counters", "port_states", "quarantined", "healing",
        }
        assert len(dump.context["counters"]) == result["nodes"]
        assert "dtp_messages_sent_total" in dump.metrics

    def test_flight_roundtrip_is_byte_identical(self, tmp_path):
        run_scenario(_two_faced_spec(), seed=0, flight_dir=str(tmp_path))
        path = tmp_path / "two-faced.flight.jsonl"
        with open(path, "rb") as handle:
            raw = handle.read()
        assert load_flight(str(path)).dump_bytes() == raw

    def test_same_seed_flights_are_byte_identical(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        run_scenario(_two_faced_spec(), seed=0, flight_dir=str(dir_a))
        run_scenario(_two_faced_spec(), seed=0, flight_dir=str(dir_b))
        assert file_sha256(str(dir_a / "two-faced.flight.jsonl")) == file_sha256(
            str(dir_b / "two-faced.flight.jsonl")
        )


class TestInsightExport:
    def test_export_equals_write_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "out"
        assert main(
            ["faultlab", "--quick", "two-faced", "--trace", str(out)]
        ) == 0
        trace_file = str(out / "two-faced.trace.jsonl")
        exported = str(tmp_path / "exported.chrome.json")
        capsys.readouterr()
        assert main(["insight", "export", trace_file, "-o", exported]) == 0
        index = TraceIndex.load(trace_file)
        assert capsys.readouterr().out == (
            f"wrote {exported} ({len(index)} events; open in Perfetto)\n"
        )
        direct = str(tmp_path / "direct.chrome.json")
        write_chrome_trace(direct, index.records, index.subjects)
        assert file_sha256(exported) == file_sha256(direct)


class TestFaultlabCliArtifacts:
    def test_dump_trace_writes_flight_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "artifacts"
        code = main(
            [
                "faultlab", "--quick", "two-faced", "baseline",
                "--trace", str(out), "--metrics-out", str(out),
                "--dump-trace", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        # Every scenario gets trace + metrics + prom; only violating ones
        # get a flight artifact.
        for scenario in ("two-faced", "baseline"):
            assert (out / f"{scenario}.trace.jsonl").exists()
            assert (out / f"{scenario}.metrics.json").exists()
            assert (out / f"{scenario}.prom").exists()
        assert (out / "two-faced.flight.jsonl").exists()
        assert not (out / "baseline.flight.jsonl").exists()
        flight = load_flight(str(out / "two-faced.flight.jsonl"))
        with open(out / "two-faced.flight.jsonl", "rb") as handle:
            assert flight.dump_bytes() == handle.read()


class TestCrossProcessDeterminism:
    def test_fig6a_serial_and_parallel_digests_agree(self):
        serial_a = run_fig6a_traced_digests()
        serial_b = run_fig6a_traced_digests()
        assert serial_a == serial_b
        assert serial_a["trace_recorded"] > 0

        tasks = [
            ExperimentTask(name=f"fig6a-{i}", fn=run_fig6a_traced_digests)
            for i in range(2)
        ]
        for parallel_result in run_tasks(tasks, jobs=2):
            assert parallel_result == serial_a
