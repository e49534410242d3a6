"""Resilient campaigns: parity with plain runs, resume, kill-resume.

The acceptance contract this file pins down:

* :func:`~repro.faultlab.campaign.run_campaign` given a ``Supervision``
  and no failures returns exactly what the plain call returns (same
  digest);
* a campaign interrupted at any point and resumed from its checkpoint
  journal produces sha256-identical metrics artifacts and result
  ordering to a same-seed uninterrupted run — serial and ``--jobs N``;
* a scenario that fails keeps failing is quarantined with a structured
  failure report and a failure flight artifact, while every other
  scenario's metrics survive.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faultlab import metrics_digest, run_campaign
from repro.observe.health import read_health
from repro.resilience import CheckpointJournal, Supervision, SupervisorPolicy
from repro.sim import units
from repro.telemetry import load_flight
from tests.conftest import file_sha256

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _supervised_campaign(
    specs, base_seed=0, jobs=1, journal_path=None, policy=None, **options
):
    """A supervised ``run_campaign``, journaled as ``repro faultlab`` does:
    the completed scenarios and the failure report."""
    journal = None
    if journal_path is not None:
        meta = {"campaign": "faultlab", "base_seed": base_seed}
        journal = CheckpointJournal(journal_path, meta=meta)
    supervision = Supervision(policy or SupervisorPolicy(base_seed=base_seed), journal)
    results = run_campaign(
        specs, base_seed=base_seed, jobs=jobs, supervision=supervision, **options
    )
    return results, supervision.run.report()


def _specs():
    return [
        {
            "name": "baseline",
            "topology": {"kind": "chain", "hosts": 3},
            "duration_fs": 400 * units.US,
            "faults": [],
        },
        {
            "name": "flap",
            "topology": {"kind": "chain", "hosts": 3},
            "duration_fs": 500 * units.US,
            "faults": [
                {"kind": "link-flap", "a": "n0", "b": "n1",
                 "start_fs": 100 * units.US, "down_every_fs": 150 * units.US,
                 "down_for_fs": 30 * units.US, "flaps": 2},
            ],
        },
        {
            "name": "partition",
            "topology": {"kind": "chain", "hosts": 3},
            "duration_fs": 400 * units.US,
            "faults": [
                {"kind": "partition", "a": "n1", "b": "n2",
                 "down_at_fs": 100 * units.US, "up_at_fs": 200 * units.US},
            ],
        },
    ]


def _bad_spec():
    # Validated inside the worker, so it exercises the exception path.
    return {
        "name": "broken",
        "topology": {"kind": "moebius"},
        "duration_fs": 100 * units.US,
    }


class TestParityWithPlainCampaign:
    def test_same_results_and_digest(self):
        plain = run_campaign(_specs(), base_seed=3, jobs=1)
        resilient, report = _supervised_campaign(_specs(), base_seed=3, jobs=2)
        assert resilient == plain
        assert metrics_digest(resilient) == metrics_digest(plain)
        assert report["failed"] == 0
        assert report["tasks"] == 3

    def test_serial_supervised_matches(self):
        plain = run_campaign(_specs(), base_seed=3, jobs=1)
        resilient, _report = _supervised_campaign(_specs(), base_seed=3, jobs=1)
        assert resilient == plain

    def test_only_the_supervised_run_writes_the_campaign_health(self, tmp_path):
        plain_dir, supervised_dir = tmp_path / "plain", tmp_path / "supervised"
        plain = run_campaign(_specs()[:2], base_seed=3, health_dir=str(plain_dir))
        supervised, _report = _supervised_campaign(
            _specs()[:2], base_seed=3, health_dir=str(supervised_dir)
        )
        assert supervised == plain
        assert not (plain_dir / "campaign.health.jsonl").exists()
        health = read_health(str(supervised_dir / "campaign.health.jsonl"))
        assert health["subjects"] == ["task/baseline", "task/flap"]


class TestJournalResume:
    def test_resume_from_partial_journal(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        full, _ = _supervised_campaign(
            _specs(), base_seed=3, jobs=2, journal_path=journal
        )
        # Simulate an interruption that lost the last two completions.
        with open(journal) as handle:
            lines = handle.read().splitlines()
        with open(journal, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n")  # header + 1 entry
        resumed, report = _supervised_campaign(
            _specs(), base_seed=3, jobs=2, journal_path=journal
        )
        assert resumed == full
        assert report["from_journal"] == 1

    def test_resumed_artifacts_byte_identical(self, tmp_path):
        ref_dir = str(tmp_path / "ref")
        res_dir = str(tmp_path / "res")
        journal = str(tmp_path / "j.jsonl")
        _supervised_campaign(
            _specs(), base_seed=3, jobs=1, metrics_dir=ref_dir
        )
        # Interrupted run: only the first scenario completes...
        _supervised_campaign(
            _specs()[:1], base_seed=3, jobs=1,
            metrics_dir=res_dir, journal_path=journal,
        )
        # ... the resumed run skips it and completes the rest.
        resumed, report = _supervised_campaign(
            _specs(), base_seed=3, jobs=1,
            metrics_dir=res_dir, journal_path=journal,
        )
        assert report["from_journal"] == 1
        for name in ("baseline", "flap", "partition"):
            for suffix in ("metrics.json", "prom"):
                ref = os.path.join(ref_dir, f"{name}.{suffix}")
                res = os.path.join(res_dir, f"{name}.{suffix}")
                assert file_sha256(ref) == file_sha256(res), (name, suffix)

    def test_seed_mismatch_rejected(self, tmp_path):
        from repro.resilience import JournalError

        journal = str(tmp_path / "j.jsonl")
        _supervised_campaign(
            _specs()[:1], base_seed=3, jobs=1, journal_path=journal
        )
        with pytest.raises(JournalError, match="different campaign"):
            _supervised_campaign(
                _specs()[:1], base_seed=4, jobs=1, journal_path=journal
            )


class TestGracefulDegradation:
    def test_poison_scenario_partial_results(self, tmp_path):
        flight_dir = str(tmp_path / "flight")
        plain_flight_dir = str(tmp_path / "plain_flight")
        specs = _specs()[:2] + [_bad_spec()]
        results, report = _supervised_campaign(
            specs, base_seed=3, jobs=2, flight_dir=flight_dir,
            policy=SupervisorPolicy(max_attempts=2, base_seed=3),
        )
        # The two healthy scenarios are intact and unchanged (a flight dir
        # turns telemetry on, so the plain reference gets one too)...
        plain = run_campaign(
            _specs()[:2], base_seed=3, jobs=1, flight_dir=plain_flight_dir
        )
        assert results == plain
        # ... the poison one is quarantined with a structured report...
        assert report["failed"] == 1
        assert report["quarantined"] == ["broken"]
        assert report["failures_by_kind"]["exception"] == 2
        assert any(
            "unknown topology kind" in failure["detail"]
            for failure in report["failures"]
        )
        # ... and the failure triggered a flight-recorder artifact.
        flight = load_flight(
            os.path.join(flight_dir, "broken.failure.flight.jsonl")
        )
        assert flight.header["scenario"] == "broken"
        assert flight.context["reason"] == "supervisor-quarantine"
        assert flight.context["failures"]

    def test_report_is_canonical_jsonable(self):
        _results, report = _supervised_campaign(
            _specs()[:1] + [_bad_spec()], base_seed=3, jobs=1,
            policy=SupervisorPolicy(max_attempts=1, base_seed=3),
        )
        encoded = json.dumps(report, sort_keys=True, separators=(",", ":"))
        assert json.loads(encoded) == report


@pytest.mark.slow
class TestKillResume:
    def test_sigkill_mid_campaign_resume_identical(self, tmp_path):
        """SIGKILL a journaled campaign; the resumed run's stdout, metrics
        artifacts and snapshot streams must be sha256-identical to an
        uninterrupted same-seed run.  (Valid wherever the kill lands — even
        after the campaign finished, the rerun still exercises
        resume-from-journal.)
        """
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        scenarios = ["baseline", "link-flap", "partition-heal", "two-faced"]

        def run_cli(extra, stdout_path):
            with open(stdout_path, "wb") as handle:
                return subprocess.run(
                    [sys.executable, "-m", "repro", "faultlab", "--quick",
                     "--seed", "0", "--json", *scenarios, *extra],
                    stdout=handle, stderr=subprocess.DEVNULL, env=env,
                )

        ref_out = str(tmp_path / "ref_out")
        ref_json = str(tmp_path / "ref.json")
        assert run_cli(
            ["--metrics-out", ref_out, "--snapshots", ref_out], ref_json
        ).returncode == 0

        kr_out = str(tmp_path / "kr_out")
        kr_journal = str(tmp_path / "kr.jsonl")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "faultlab", "--quick",
             "--seed", "0", "--json", *scenarios,
             "--journal", kr_journal, "--metrics-out", kr_out,
             "--snapshots", kr_out],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        time.sleep(1.5)
        try:
            victim.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        victim.wait()

        kr_json = str(tmp_path / "kr.json")
        resumed = run_cli(
            ["--journal", kr_journal, "--metrics-out", kr_out,
             "--snapshots", kr_out],
            kr_json,
        )
        assert resumed.returncode == 0
        assert file_sha256(ref_json) == file_sha256(kr_json)
        for name in os.listdir(ref_out):
            assert file_sha256(
                os.path.join(ref_out, name)
            ) == file_sha256(os.path.join(kr_out, name)), name
        assert sorted(os.listdir(ref_out)) == sorted(os.listdir(kr_out))
        with open(kr_journal, "r", encoding="utf-8") as handle:
            assert handle.read().count('"record":"task-result"') == len(scenarios)
