"""The racelab determinism and fairness contract.

* same seed, serial vs ``--jobs 2`` -> byte-identical races and report;
* a discipline's fault stream is independent of the competitor count
  (the pi entry of a four-way race == the pi entry racing alone);
* the acceptance pin: skewless beats the PI servo on max offset in the
  oscillator-glitch scenario (quick, seed 0) and the report records it;
* the CLI and the insight report's race section render deterministically.
"""

import json

import pytest

from repro.discipline.base import DisciplineError
from repro.discipline.cli import main as racelab_main
from repro.discipline.racelab import (
    DEFAULT_DISCIPLINES,
    EXTRA_RACE_SCENARIOS,
    RaceSettings,
    race_scenario_names,
    race_specs,
    render_race_report,
    run_race_campaign,
    scenario_settings,
)
from repro.faultlab.scenarios import BUILTIN_SCENARIOS


def small_specs(names=("baseline", "oscillator-glitch")):
    return race_specs(names, quick=True)


class TestDeterminism:
    def test_serial_equals_parallel_byte_identical(self):
        specs = small_specs()
        serial = run_race_campaign(specs, base_seed=3, jobs=1)
        parallel = run_race_campaign(small_specs(), base_seed=3, jobs=2)
        canon = lambda r: json.dumps(r, sort_keys=True)  # noqa: E731
        assert canon(serial) == canon(parallel)
        assert render_race_report(serial) == render_race_report(parallel)

    def test_entry_independent_of_competitor_count(self):
        specs = small_specs(("baseline",))
        solo = run_race_campaign(specs, disciplines=("pi",), base_seed=5)
        field = run_race_campaign(
            small_specs(("baseline",)), disciplines=DEFAULT_DISCIPLINES, base_seed=5
        )
        assert solo["baseline"]["entries"]["pi"] == field["baseline"]["entries"]["pi"]
        assert (
            solo["baseline"]["scenario_digest"]
            == field["baseline"]["scenario_digest"]
        )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DisciplineError):
            run_race_campaign(small_specs(("baseline",)), disciplines=("pi", "pi"))

    def test_unknown_discipline_rejected_before_running(self):
        with pytest.raises(DisciplineError):
            run_race_campaign(small_specs(("baseline",)), disciplines=("warp",))


class TestAcceptance:
    @pytest.fixture(scope="class")
    def races(self):
        return run_race_campaign(
            race_specs(
                ("baseline", "oscillator-glitch", "congested-baseline"), quick=True
            ),
            base_seed=0,
        )

    def test_four_disciplines_three_scenarios(self, races):
        assert len(races) == 3
        for data in races.values():
            assert sorted(data["entries"]) == sorted(DEFAULT_DISCIPLINES)

    def test_skewless_beats_pi_on_oscillator_glitch(self, races):
        """The issue's acceptance pin: the step-free controller rides out
        the oscillator glitch with a smaller worst excursion."""
        entries = races["oscillator-glitch"]["entries"]
        assert (
            entries["skewless"]["max_abs_offset_fs"]
            < entries["pi"]["max_abs_offset_fs"]
        )

    def test_win_is_recorded_in_report(self, races):
        report = "\n".join(render_race_report(races))
        assert "## oscillator-glitch" in report
        glitch = report.split("## oscillator-glitch", 1)[1].split("## ")[0]
        assert "| 1 | skewless |" in glitch
        assert report.rstrip().splitlines()[-1].startswith("racelab sha256: ")

    def test_congestion_discipline_wins_its_home_track(self, races):
        """Under heavy bursts the marking-assisted PI out-ranks plain PI."""
        entries = races["congested-baseline"]["entries"]
        assert (
            entries["congestion"]["max_abs_offset_fs"]
            < entries["pi"]["max_abs_offset_fs"]
        )

    def test_skewless_never_steps(self, races):
        for data in races.values():
            entry = data["entries"]["skewless"]
            assert entry["clock_steps"] == 0
            assert entry["actions"].get("step", 0) == 0


class TestObserverHook:
    def test_race_report_is_byte_equal_on_scalar_and_batched(self, monkeypatch):
        """Observers ride the batched default: their events draw sequence
        numbers from the engine counter the coordinator mirrors, so the
        race — rankings, digests, report — is the scalar oracle's."""
        import functools

        from repro.discipline import racelab
        from repro.faultlab.campaign import RunOptions, run_scenario

        def report():
            # link-flap demotes mid-race; oscillator-glitch is the pinned win.
            races = run_race_campaign(
                small_specs(("link-flap", "oscillator-glitch")), base_seed=0
            )
            return "\n".join(render_race_report(races)), races

        assert RunOptions().backend == "batched"
        default_report, default_races = report()
        monkeypatch.setattr(
            racelab, "run_scenario", functools.partial(run_scenario, backend="scalar")
        )
        scalar_report, scalar_races = report()
        assert default_report == scalar_report
        assert default_races == scalar_races
        assert "| 1 | skewless |" in default_report

    def test_race_observer_is_single_use(self):
        from repro.discipline.racelab import RaceObserver, run_race_scenario
        from repro.discipline.base import build_discipline

        observer = RaceObserver(build_discipline("pi"))
        spec = BUILTIN_SCENARIOS["baseline"](True)
        from repro.faultlab.campaign import run_scenario

        run_scenario(dict(spec), observers=[observer])
        with pytest.raises(DisciplineError):
            run_scenario(dict(spec), observers=[observer])
        # run_race_scenario builds a fresh observer every call, so reuse
        # at the campaign layer is impossible by construction.
        assert run_race_scenario(dict(spec), "pi")["race"]["observations"] > 0


class TestScenarioCard:
    def test_builtins_unchanged_by_race_extras(self):
        assert len(BUILTIN_SCENARIOS) == 9
        assert not set(EXTRA_RACE_SCENARIOS) & set(BUILTIN_SCENARIOS)
        assert race_scenario_names() == (
            list(BUILTIN_SCENARIOS) + list(EXTRA_RACE_SCENARIOS)
        )

    def test_race_only_scenarios_get_settings_overrides(self):
        base = RaceSettings()
        congested = scenario_settings("congested-baseline", base)
        assert congested.burst_probability > base.burst_probability
        assert scenario_settings("baseline", base) is base


class TestFabricTrack:
    """The clos-fabric race card: 128 port directions, diameter 4."""

    @pytest.fixture(scope="class")
    def races(self):
        return run_race_campaign(
            race_specs(("clos-fabric",), quick=True), base_seed=0
        )

    def test_pinned_deterministic_ranking(self, races):
        """quick, seed 0: the step-free controller wins the fabric, the
        daemon's coarse steps lose it, and congestion marking does not
        hurt the PI servo.  Pinned — a ranking flip on the same seed
        means a discipline or the fabric scenario changed behavior."""
        entries = races["clos-fabric"]["entries"]
        assert sorted(entries) == sorted(DEFAULT_DISCIPLINES)
        offsets = {
            label: entry["max_abs_offset_fs"]
            for label, entry in entries.items()
        }
        assert offsets["skewless"] < min(
            offsets["pi"], offsets["congestion"], offsets["daemon"]
        )
        assert offsets["daemon"] > max(
            offsets["skewless"], offsets["pi"], offsets["congestion"]
        )
        assert offsets["congestion"] <= offsets["pi"]

    def test_card_rendered_in_report(self, races):
        report = "\n".join(render_race_report(races))
        assert "## clos-fabric" in report
        card = report.split("## clos-fabric", 1)[1].split("## ")[0]
        assert "| 1 | skewless |" in card
        assert "| 4 | daemon |" in card


class TestCli:
    def test_cli_report_deterministic(self, capsys, tmp_path):
        argv = [
            "--quick", "--seed", "0", "--disciplines", "pi,skewless",
            "oscillator-glitch",
        ]
        assert racelab_main(argv + ["--out", str(tmp_path / "a")]) == 0
        first = capsys.readouterr().out
        assert racelab_main(argv + ["--out", str(tmp_path / "b")]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "racelab sha256: " in first
        report_a = (tmp_path / "a" / "race-report.md").read_text()
        report_b = (tmp_path / "b" / "race-report.md").read_text()
        assert report_a == report_b
        assert "winner:" in report_a
        race_json = (tmp_path / "a" / "oscillator-glitch.race.json").read_text()
        assert race_json == (tmp_path / "b" / "oscillator-glitch.race.json").read_text()
        assert json.loads(race_json)["entries"]["skewless"]

    def test_cli_list(self, capsys):
        assert racelab_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "oscillator-glitch" in out
        assert "congested-baseline" in out
        assert "disciplines: congestion daemon pi skewless" in out

    def test_cli_json_is_canonical(self, capsys):
        argv = ["--quick", "--disciplines", "pi", "--json", "baseline"]
        assert racelab_main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["baseline"]["entries"]["pi"]["score_samples"] > 0

    def test_umbrella_dispatch(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["racelab", "--list"]) == 0
        assert "disciplines:" in capsys.readouterr().out


class TestInsightIntegration:
    def test_race_artifact_rendered_in_insight_report(self, tmp_path):
        from repro.insight.report import generate_insight_report

        run_race_campaign(
            small_specs(("oscillator-glitch",)),
            disciplines=("pi", "skewless"),
            base_seed=0,
            out_dir=str(tmp_path),
        )
        text = generate_insight_report(str(tmp_path))
        assert "### Discipline race" in text
        assert "winner: skewless" in text
        # Two renders of the same directory are byte-identical.
        assert text == generate_insight_report(str(tmp_path))
