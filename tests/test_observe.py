"""End-to-end promises of the observe layer: taps, SLOs, health, CLI.

The mission-control contract has four load-bearing parts, each pinned
here: snapshot streams are byte-identical across backends and worker
counts; enabling the taps never perturbs the simulation itself; the SLO
engine's *live* verdicts (from a stream's final record) equal its
*post-hoc* verdicts (from the results dict); and the health channel is
explicitly nondeterministic and segregated.  The CLI tests drive
``repro status`` / ``watch`` / ``slo evaluate`` straight from a run
directory, the way an operator would.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main as repro_main
from repro.faultlab.campaign import run_campaign, run_scenario
from repro.faultlab.scenarios import BUILTIN_SCENARIOS, builtin_specs
from repro.ioutil import canonical_json
from repro.observe import (
    HealthRecorder,
    SLOError,
    builtin_slos,
    evaluate_slo,
    load_slo,
    read_health,
    read_snapshots,
    slo_source_from_result,
    slo_source_from_snapshots,
)
from repro.observe import snapshots
from repro.observe.snapshots import ObserveProbe, encode_snapshot
from repro.observe import cli as observe_cli
from repro.observe.cli import (
    evaluate_results,
    evaluate_rundir,
    main as observe_main,
    write_verdicts,
)


#: The ``src`` directory of the ``repro`` under test, for subprocesses.
REPRO_SRC = str(Path(observe_cli.__file__).resolve().parents[2])


def canon(result) -> str:
    return json.dumps(result, sort_keys=True)


def tree(root: Path):
    """{relative path: bytes} for every file under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def spec_for(name: str):
    return builtin_specs([name], quick=True)[0]


# ----------------------------------------------------------------------
# Snapshot streams: deterministic, backend- and jobs-invariant
# ----------------------------------------------------------------------
class TestSnapshotStreams:
    def test_streams_identical_across_backends(self, tmp_path):
        trees = {}
        for backend in ("scalar", "batched", "sharded"):
            out = tmp_path / backend
            kwargs = {"backend": backend}
            if backend == "sharded":
                kwargs.update(shards=2, shard_transport="inline")
            run_scenario(
                spec_for("baseline"),
                seed=0,
                snapshot_dir=str(out),
                observe=True,
                **kwargs,
            )
            trees[backend] = tree(out)
        assert trees["scalar"] == trees["batched"] == trees["sharded"]
        assert any(p.endswith(".snapshots.jsonl") for p in trees["scalar"])

    def test_streams_identical_serial_vs_jobs2(self, tmp_path):
        specs = builtin_specs(["baseline", "partition-heal"], quick=True)
        serial_dir, par_dir = tmp_path / "serial", tmp_path / "par"
        serial = run_campaign(
            specs, base_seed=0, jobs=1, snapshot_dir=str(serial_dir), observe=True
        )
        parallel = run_campaign(
            specs, base_seed=0, jobs=2, snapshot_dir=str(par_dir), observe=True
        )
        assert canon(serial) == canon(parallel)
        assert tree(serial_dir) == tree(par_dir)

    def test_taps_do_not_perturb_the_run(self):
        plain = run_scenario(spec_for("baseline"), seed=0)
        tapped = run_scenario(spec_for("baseline"), seed=0, observe=True)
        assert "observe" not in plain
        observed = dict(tapped)
        assert observed.pop("observe")["samples"] > 0
        assert canon(observed) == canon(plain)

    def test_stream_is_valid_and_final(self, tmp_path):
        run_scenario(
            spec_for("baseline"), seed=0, snapshot_dir=str(tmp_path), observe=True
        )
        path = next(tmp_path.glob("*.snapshots.jsonl"))
        stream = read_snapshots(str(path))
        header = stream["header"]
        assert header["scenario"] == "baseline"
        assert header["seed"] == 0
        assert header["sample_interval_fs"] > 0
        snaps = stream["snapshots"]
        assert snaps and stream["final"] is not None
        times = [s["t_fs"] for s in snaps]
        assert times == sorted(times)


#: sha256[:16] of each builtin's ``--quick`` seed-0 snapshot stream as the
#: commit before the line template wrote it (``canonical_json`` per record).
PARENT_STREAMS = {
    "baseline": "e355a35d7998583a",
    "link-flap": "4caf973b4c943a80",
    "ber-burst": "e86ac33098b79f4f",
    "partition-heal": "5b1b1fc41fcac867",
    "node-crash": "3c61820e3352d3b7",
    "beacon-suppression": "3df02768a2e02a4a",
    "two-faced": "09f7976aca2ea6f0",
    "oscillator-glitch": "88496020f674bccb",
    "runaway": "696e4e365d737f42",
}


@pytest.mark.parametrize("name", sorted(PARENT_STREAMS))
def test_builtin_streams_keep_the_parents_bytes_on_every_backend(name, tmp_path):
    assert set(PARENT_STREAMS) == set(BUILTIN_SCENARIOS)
    for backend in ("scalar", "batched", "sharded"):
        out = tmp_path / backend
        run_scenario(
            spec_for(name), seed=0, snapshot_dir=str(out), backend=backend,
            shards=2, shard_transport="inline",
        )
        data = (out / f"{name}.snapshots.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest()[:16] == PARENT_STREAMS[name], backend


# ----------------------------------------------------------------------
# The snapshot line template == canonical_json, or it is not used
# ----------------------------------------------------------------------
class _Kind(enum.IntEnum):
    ONE = 1


def _probe_fields():
    """The keys the probe emits, captured from the probe itself: a field
    added there joins these tests (and fails them until the template has it)."""

    class Tap:
        def emit(self, fields):
            self.fields = fields

    probe = ObserveProbe(tap=Tap())
    probe.observe_links(0, None, [])
    return sorted(probe.tap.fields)


SNAPSHOT_FIELDS = _probe_fields()
_ints = st.integers(-(1 << 70), 1 << 70)
_not_ints = st.one_of(
    st.booleans(), st.just(_Kind.ONE), st.floats(allow_nan=False), st.just("7")
)


@given(
    st.fixed_dictionaries(dict.fromkeys(SNAPSHOT_FIELDS, _ints)),
    st.one_of(st.none(), _ints),
)
def test_snapshot_template_equals_canonical_json_over_ints(fields, worst):
    fields["worst_units"] = worst
    line = encode_snapshot(fields)
    assert line == canonical_json({"record": "snapshot", **fields})
    assert json.loads(line) == {"record": "snapshot", **fields}


@given(
    st.fixed_dictionaries(dict.fromkeys(SNAPSHOT_FIELDS, _ints)),
    st.sampled_from(SNAPSHOT_FIELDS),
    st.one_of(_not_ints, st.none()),
)
def test_snapshot_fields_that_are_not_ints_take_the_fallback(fields, key, value):
    if key == "worst_units" and value is None:
        value = 1.5
    fields[key] = value
    assert encode_snapshot(fields) == canonical_json({"record": "snapshot", **fields})


def test_the_probes_own_record_takes_the_template(monkeypatch):
    def refuse(_obj):
        raise AssertionError("the probe emits a shape the template does not cover")

    monkeypatch.setattr(snapshots, "canonical_json", refuse)
    fields = dict.fromkeys(SNAPSHOT_FIELDS, 1)
    assert json.loads(encode_snapshot(fields)) == {"record": "snapshot", **fields}


def test_other_shapes_take_the_fallback():
    for fields in (
        {}, {"now_fs": 1, "worst": 2, "samples": 3},
        dict.fromkeys(SNAPSHOT_FIELDS[1:], 1),
        dict.fromkeys(SNAPSHOT_FIELDS + ["zeta"], 1),
    ):
        assert encode_snapshot(fields) == canonical_json({"record": "snapshot", **fields})


# ----------------------------------------------------------------------
# Precision-SLO engine
# ----------------------------------------------------------------------
class TestSLOEngine:
    def test_live_equals_posthoc_verdicts(self, tmp_path):
        specs = builtin_specs(["baseline", "two-faced"], quick=True)
        results = run_campaign(
            specs, base_seed=0, jobs=1, snapshot_dir=str(tmp_path), observe=True
        )
        slo = load_slo("default")
        live = evaluate_rundir(str(tmp_path), slo)
        posthoc = evaluate_results(results, slo)
        assert canon(live) == canon(posthoc)
        write_verdicts(str(tmp_path / "live"), live)
        write_verdicts(str(tmp_path / "posthoc"), posthoc)
        for name in ("slo_scorecard.md", "baseline.slo.json", "two-faced.slo.json"):
            assert (tmp_path / "live" / name).read_bytes() == (
                tmp_path / "posthoc" / name
            ).read_bytes()

    def test_two_faced_breaches_default_and_baseline_passes(self):
        slo = load_slo("default")
        good = evaluate_slo(
            slo,
            slo_source_from_result(
                run_scenario(spec_for("baseline"), seed=0, observe=True)
            ),
        )
        bad = evaluate_slo(
            slo,
            slo_source_from_result(
                run_scenario(spec_for("two-faced"), seed=0, observe=True)
            ),
        )
        assert good["pass"]
        assert not bad["pass"]
        assert any(not o["pass"] for o in bad["objectives"])

    def test_source_from_snapshots_matches_result(self, tmp_path):
        result = run_scenario(
            spec_for("baseline"), seed=0, snapshot_dir=str(tmp_path), observe=True
        )
        path = next(tmp_path.glob("*.snapshots.jsonl"))
        from_stream = slo_source_from_snapshots(read_snapshots(str(path)))
        from_result = slo_source_from_result(result)
        assert canon(from_stream) == canon(from_result)

    def test_builtin_specs_and_bad_slo(self):
        assert set(builtin_slos()) >= {"default", "strict"}
        with pytest.raises(SLOError):
            load_slo("no-such-slo")
        with pytest.raises(SLOError):
            load_slo('{"objectives": "not-a-list"}')


# ----------------------------------------------------------------------
# Mission-control CLI
# ----------------------------------------------------------------------
class TestObserveCLI:
    @pytest.fixture()
    def rundir(self, tmp_path):
        run_campaign(
            builtin_specs(["baseline", "two-faced"], quick=True),
            base_seed=0,
            jobs=1,
            snapshot_dir=str(tmp_path),
            observe=True,
        )
        return tmp_path

    def test_status_renders_each_scenario(self, rundir, capsys):
        assert observe_main(["status", str(rundir)]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "two-faced" in out
        assert "done" in out

    def test_watch_once(self, rundir, capsys, monkeypatch):
        def no_second_frame(seconds):
            raise AssertionError("watch slept over a finished run")

        monkeypatch.setattr(observe_cli.time, "sleep", no_second_frame)
        assert observe_main(["watch", str(rundir)]) == 0
        out = capsys.readouterr().out
        # One frame, not cleared: stdout is not a terminal here.
        assert out.count("run directory:") == 1
        assert "\x1b" not in out
        assert "baseline" in out

    def test_status_reads_violations_from_the_final_record(self, rundir, capsys):
        stream = read_snapshots(str(rundir / "two-faced.snapshots.jsonl"))
        final = stream["final"]["violations_total"]
        # The result counts violations after the last sampler instant.
        assert stream["snapshots"][-1]["violations_total"] < final
        assert observe_main(["status", str(rundir)]) == 0
        (row,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("two-faced ")
        ]
        assert row.split()[5] == str(final)

    def test_status_on_a_missing_directory_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert observe_main(["status", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"status: no such directory: {missing}\n"

    def test_glob_special_rundir_name(self, tmp_path, capsys):
        rundir = str(tmp_path / "run[1]")
        run_campaign(
            builtin_specs(["baseline"], quick=True),
            base_seed=0,
            jobs=1,
            snapshot_dir=rundir,
            observe=True,
        )
        assert observe_main(["status", rundir]) == 0
        assert "baseline" in capsys.readouterr().out
        assert observe_main(["slo", "evaluate", rundir]) == 0
        assert "baseline             PASS" in capsys.readouterr().out
        assert observe_main(["watch", rundir]) == 0
        assert "done" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["status"], ["slo", "evaluate"], ["watch"]], ids=" ".join
    )
    def test_closed_pipe_exits_141_quietly(self, rundir, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv, str(rundir)],
                stdout=write_end, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=REPRO_SRC), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_slo_evaluate_exit_codes_and_artifacts(self, rundir, tmp_path, capsys):
        out_dir = tmp_path / "verdicts"
        code = observe_main(
            ["slo", "evaluate", str(rundir), "--slo", "default",
             "--out", str(out_dir)]
        )
        assert code == 1  # two-faced breaches
        printed = capsys.readouterr().out
        assert "FAIL" in printed and "PASS" in printed
        assert (out_dir / "two-faced.slo.json").is_file()
        assert (out_dir / "slo_scorecard.md").is_file()
        with open(out_dir / "baseline.slo.json", encoding="utf-8") as fh:
            assert json.load(fh)["pass"] is True

    def test_slo_evaluate_results_json(self, tmp_path, capsys):
        result = run_scenario(spec_for("baseline"), seed=0, observe=True)
        results_path = tmp_path / "results.json"
        results_path.write_text(canon({"baseline": result}), encoding="utf-8")
        code = observe_main(
            ["slo", "evaluate", "--results", str(results_path), "--slo", "default"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_empty_rundir_and_bad_slo_are_errors(self, tmp_path):
        assert observe_main(["slo", "evaluate", str(tmp_path)]) == 2
        assert (
            observe_main(["slo", "evaluate", str(tmp_path), "--slo", "nope"]) == 2
        )

    def test_repro_cli_dispatch(self, rundir, capsys):
        assert repro_main(["status", str(rundir)]) == 0
        assert "baseline" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Health channel: real signals, explicitly nondeterministic
# ----------------------------------------------------------------------
class TestHealthChannel:
    def test_recorder_round_trip(self, tmp_path):
        rec = HealthRecorder(source="supervisor")
        rec.shard_grant(1, 1_000_000, 500_000)
        rec.shard_service(1_000_000, 0, 12, 250_000)
        rec.shard_stall(1_000_000, 1, 8)
        rec.task_state("baseline", "running", 1)
        rec.task_retry("baseline", 1, 2)
        rec.task_quarantine("baseline", "crash", 3)
        path = tmp_path / "campaign.health.jsonl"
        rec.write(str(path))

        health = read_health(str(path))
        header = health["header"]
        assert header["deterministic"] is False
        assert header["source"] == "supervisor"
        assert header["events"] == 6
        names = [event["name"] for event in health["events"]]
        assert names == [
            "shard-grant",
            "shard-service",
            "shard-stall",
            "supervisor-task",
            "supervisor-retry",
            "supervisor-quarantine",
        ]
        metrics = health["metrics"]["metrics"]
        assert sum(
            int(v)
            for v in metrics["observe_worker_retries_total"]["samples"].values()
        ) == 1
        assert sum(
            int(v)
            for v in metrics["observe_worker_quarantines_total"]["samples"].values()
        ) == 1

    def test_campaign_health_artifact(self, tmp_path):
        run_scenario(
            spec_for("baseline"),
            seed=0,
            backend="sharded",
            shards=2,
            shard_transport="inline",
            health_dir=str(tmp_path),
        )
        path = next(tmp_path.glob("*.health.jsonl"))
        health = read_health(str(path))
        assert health["header"]["deterministic"] is False
        assert str(health["header"]["source"]).startswith("shard-coordinator")
