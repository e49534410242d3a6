"""Self-check of the benchmark harness (not of the program it measures).

Run as ``python -m pytest e2e_bench -q``; deliberately outside the tier-1
``testpaths``.  Two ``--smoke`` runs (tiny durations, every workload, the
whole layer pass) feed most checks.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def smoke(path):
    done = subprocess.run(RUN + ["--smoke", "--out", str(path)], stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    with open(path, encoding="utf-8") as fh:
        return done.stdout, json.load(fh)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("smoke")
    return smoke(directory / "a.json"), smoke(directory / "b.json"), directory


def test_contract_file_shape():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert SPEC["paths"] == ["e2e_bench"]
    names = WORKLOADS + END_TO_END + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_contract_matches_the_code():
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import layers
    import run
    import workloads

    assert PER_LAYER == {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert run.DEFAULT_SEED == EXPECTED["seed"]


def test_calibration_kernel_is_frozen():
    with open(os.path.join(BENCH_DIR, "calibration.py"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == EXPECTED["calibration_sha256"]
    with open(os.path.join(BENCH_DIR, "calibration.py"), encoding="utf-8") as fh:
        assert "repro" not in fh.read().replace("``repro``", "")


def test_pins_cover_every_workload_and_twins_agree():
    pins = EXPECTED["workloads"]
    assert sorted(pins) == sorted(WORKLOADS)
    # Same spec, serial vs sharded: byte-identical result, so one digest.
    serial, sharded = pins["fattree-scalar"]["outcome"], pins["fattree-sharded2"]["outcome"]
    assert serial["digest"] == sharded["digest"]
    assert serial["precision_ticks"] == sharded["precision_ticks"]
    assert all(pin["layer_counts"] for pin in pins.values())


def test_every_metric_and_workload_is_printed_with_its_unit(smoke_runs):
    (stdout, _), _, _ = smoke_runs
    for workload in WORKLOADS:
        for metric in END_TO_END + ["failed_share", "precision_max_ticks"]:
            assert re.search(rf"^{re.escape(workload)}\s+{metric}\s+\S+\s+\S+", stdout, re.M), (
                workload, metric)
    for metric, unit in PER_LAYER.items():
        assert re.search(rf"^{re.escape(metric)}\s+{re.escape(unit)}\s", stdout, re.M), metric
    assert "no tail percentile" in stdout


def test_output_json_keeps_raw_samples_and_host_facts(smoke_runs):
    (_, out), _, _ = smoke_runs
    assert out["failed_share"] == 0
    assert {"python", "commit", "calib_s", "usable_cpus", "calibration_sha256"} <= set(out["host"])
    assert {"seed", "repeats", "profile"} <= set(out)
    for workload in WORKLOADS:
        samples = out["workloads"][workload]["end_to_end"]["samples"]
        assert len(samples["calib_s"]) - 1 == len(samples["wall_s"]) == len(samples["norm_wall"])
        assert samples["setup_s"]


def test_exact_counts_and_digests_repeat(smoke_runs):
    (_, a), (_, b), _ = smoke_runs
    for workload in WORKLOADS:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        assert wa["end_to_end"]["outcome"] == wb["end_to_end"]["outcome"]
        assert wa["layer_counts"] and wa["layer_counts"] == wb["layer_counts"]
        assert all(PER_LAYER[name] == "count" for name in wa["layer_counts"])


def test_dispatch_shares_are_shares(smoke_runs):
    (_, out), _, _ = smoke_runs
    scalar_engine = {"fig6a-scalar", "fattree-scalar", "campaign9-artifacts"}
    for workload in WORKLOADS:
        shares = [v for k, v in out["workloads"][workload]["layers"].items()
                  if k.endswith(".dispatch_share")]
        if workload in scalar_engine:
            assert 0 < sum(shares) <= 1, workload
        else:  # virtual / remote events are invisible to the hook
            assert shares and all(share is None for share in shares), workload


def test_compare_reads_two_outputs(smoke_runs):
    _, _, directory = smoke_runs
    done = subprocess.run(RUN + ["--compare", str(directory / "a.json"), str(directory / "b.json")],
                          stdout=subprocess.PIPE, text=True)
    for workload in WORKLOADS:
        for metric in END_TO_END + ["failed_share", "precision_max_ticks"]:
            row = re.search(rf"^{re.escape(workload)}\s+{metric}\s.*(within|worse|unresolved)$",
                            done.stdout, re.M)
            assert row, (workload, metric, done.stdout)
        assert re.search(rf"^{re.escape(workload)}.*identical$", done.stdout, re.M)


@pytest.mark.parametrize("trace, names", [(0, END_TO_END), (1, list(PER_LAYER))])
def test_driver_mode_prints_the_contract_line(trace, names):
    done = subprocess.run(
        RUN + ["--workload", "fig6a-scalar", "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--profile", "smoke"],
        stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        assert sorted(metric) == ["unit", "value"] and metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "e2e_bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2e_bench/run.py", "--workload", "fig6a-scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0
    assert done.stdout == ""
