"""`RunOptions`: the one object every scenario run option travels in.

Pins the seams of the single scenario pipeline: each public entry point
collects its keywords into a :class:`RunOptions` and rejects unknown
names uniformly, the object survives the process boundaries it crosses
(pickle, journal digests), every field reaches the backend driver, and
the "Run options" table in ``docs/FAULTLAB.md`` stays in step.
"""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.faultlab import campaign
from repro.faultlab.campaign import (
    CampaignError,
    RunOptions,
    _campaign_tasks,
    run_campaign,
    run_scenario,
)
from repro.faultlab.cli import main as faultlab_main
from repro.resilience import Supervision
from repro.resilience.journal import args_digest
from repro.shard import run_sharded_scenario
from repro.sim import units

FIELD_NAMES = [f.name for f in fields(RunOptions)]


def _spec(name="chain4"):
    return {
        "name": name,
        "topology": {"kind": "chain", "hosts": 4},
        "duration_fs": 200 * units.US,
    }


# ----------------------------------------------------------------------
# Unknown options: one error, every entry point
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "call",
    [
        lambda **kw: run_scenario(_spec(), **kw),
        lambda **kw: run_campaign([_spec()], **kw),
        lambda **kw: run_campaign([_spec()], supervision=Supervision(), **kw),
        lambda **kw: run_sharded_scenario(_spec(), **kw),
    ],
    ids=["run_scenario", "run_campaign", "supervised_run_campaign", "run_sharded_scenario"],
)
def test_unknown_option_rejected_naming_the_valid_fields(call):
    with pytest.raises(CampaignError) as excinfo:
        call(trace_dirr="typo")
    message = str(excinfo.value)
    assert "trace_dirr" in message
    for name in FIELD_NAMES:
        assert name in message


# ----------------------------------------------------------------------
# Process boundaries
# ----------------------------------------------------------------------
def test_run_options_survive_pickle():
    options = RunOptions(trace_dir="t", backend="sharded", shards=3, observe=True)
    clone = pickle.loads(pickle.dumps(options))
    assert clone == options
    with pytest.raises(AttributeError):
        clone.backend = "scalar"  # frozen


_DIGEST_SNIPPET = """
from repro.faultlab.campaign import RunOptions, _campaign_tasks
from repro.resilience import Supervision
from repro.resilience.journal import args_digest
from repro.sim import units
spec = {"name": "chain4", "topology": {"kind": "chain", "hosts": 4},
        "duration_fs": 200 * units.US}
options = RunOptions(metrics_dir="m", backend="batched", shards=2)
print(args_digest(_campaign_tasks([spec], 7, options)[0]))
"""


def test_campaign_task_digest_is_stable_across_interpreters():
    """Journal resume keys on ``args_digest``; it must not depend on the
    process that computed it."""
    options = RunOptions(metrics_dir="m", backend="batched", shards=2)
    here = args_digest(_campaign_tasks([_spec()], 7, options)[0])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="random")
    fresh = subprocess.run(
        [sys.executable, "-c", _DIGEST_SNIPPET],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.strip()
    assert fresh == here
    other = RunOptions(metrics_dir="elsewhere", backend="batched", shards=2)
    assert args_digest(_campaign_tasks([_spec()], 7, other)[0]) != here


# ----------------------------------------------------------------------
# Every field reaches the scenario run
# ----------------------------------------------------------------------
def _non_default(tmp_path):
    return {
        "trace_dir": str(tmp_path / "trace"),
        "metrics_dir": str(tmp_path / "metrics"),
        "flight_dir": str(tmp_path / "flight"),
        "profile_dispatch": True,
        "backend": "scalar",
        "shards": 2,
        "shard_transport": "inline",
        "snapshot_dir": str(tmp_path / "snapshots"),
        "observe": True,
        "health_dir": str(tmp_path / "health"),
    }


@pytest.fixture
def seen_by_driver(monkeypatch):
    """Wrap every backend driver so it records the options it was given."""
    seen = []

    def spy(driver):
        def wrapped(prepared, seed, options, *live):
            seen.append(options)
            return driver(prepared, seed, options, *live)

        return wrapped

    monkeypatch.setattr(
        campaign, "DRIVERS", {n: spy(d) for n, d in campaign.DRIVERS.items()}
    )
    return seen


@pytest.mark.parametrize("field", FIELD_NAMES)
def test_every_option_reaches_the_scenario_run(field, tmp_path, seen_by_driver):
    values = _non_default(tmp_path)
    assert list(values) == FIELD_NAMES, "a RunOptions field has no test value"
    value = values[field]
    assert value != getattr(RunOptions(), field)
    run_campaign([_spec()], base_seed=3, jobs=1, **{field: value})
    assert seen_by_driver == [RunOptions(**{field: value})]


def test_sharded_inline_with_snapshots_through_run_campaign(tmp_path, seen_by_driver):
    sharded_dir, default_dir = tmp_path / "sharded", tmp_path / "default"
    sharded = run_campaign(
        [_spec()], jobs=1, backend="sharded", shards=2,
        shard_transport="inline", snapshot_dir=str(sharded_dir),
    )
    default = run_campaign([_spec()], jobs=1, snapshot_dir=str(default_dir))
    assert [o.backend for o in seen_by_driver] == ["sharded", "batched"]
    assert seen_by_driver[0].shard_transport == "inline"
    assert sharded == default
    assert "observe" in sharded["chain4"]
    name = "chain4.snapshots.jsonl"
    assert (sharded_dir / name).read_bytes() == (default_dir / name).read_bytes()


def test_batched_is_the_default_and_scalar_the_explicit_oracle(
    seen_by_driver, capsys, monkeypatch
):
    """One literal: ``DtpNetwork`` resolves a missing ``backend`` to
    ``dtp.network.DEFAULT_BACKEND`` when it is built, ``RunOptions`` (and
    through it the CLI) takes its default from there, and the hand-built
    entry points pass ``None`` through to the network."""
    import inspect

    from repro.dtp import network
    from repro.dtp.network import DtpNetwork
    from repro.experiments.fig6_dtp import run_fig6_dtp
    from repro.network.topology import chain
    from repro.sim.engine import Simulator
    from repro.sim.randomness import RandomStreams

    assert network.BACKENDS == ("scalar", "batched")
    assert RunOptions().backend == network.DEFAULT_BACKEND == "batched"
    assert len(FIELD_NAMES) == 10
    assert sorted(campaign.DRIVERS) == ["batched", "scalar", "sharded"]
    assert faultlab_main(["--quick", "baseline"]) == 0
    default_out = capsys.readouterr().out
    assert faultlab_main(["--quick", "baseline", "--backend", "scalar"]) == 0
    assert capsys.readouterr().out == default_out
    assert [o.backend for o in seen_by_driver] == ["batched", "scalar"]
    for entry in (DtpNetwork.__init__, run_fig6_dtp):
        assert inspect.signature(entry).parameters["backend"].default is None
    monkeypatch.setattr(network, "DEFAULT_BACKEND", "scalar")  # read at build time
    assert DtpNetwork(Simulator(), chain(2), RandomStreams(0)).backend == "scalar"


def test_unknown_backend_lists_the_registered_ones():
    with pytest.raises(CampaignError, match="unknown backend 'warp'.*sharded"):
        run_scenario(_spec(), backend="warp")


# ----------------------------------------------------------------------
# docs/FAULTLAB.md "Run options" table
# ----------------------------------------------------------------------
DOC_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "FAULTLAB.md")
TABLE = re.compile(
    r"<!-- BEGIN RUN OPTIONS[^\n]*-->\n(.*?)\n<!-- END RUN OPTIONS -->", re.S
)


def test_doc_table_matches_run_options(capsys):
    with open(DOC_PATH, "r", encoding="utf-8") as handle:
        match = TABLE.search(handle.read())
    assert match, "run-options markers missing from docs/FAULTLAB.md"
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in match.group(1).splitlines()[2:]
    ]
    assert [(row[0], row[1]) for row in rows] == [
        (f"`{f.name}`", f"`{f.default!r}`") for f in fields(RunOptions)
    ], "docs/FAULTLAB.md run-options table is stale"
    with pytest.raises(SystemExit):
        faultlab_main(["--help"])
    cli_help = capsys.readouterr().out
    for row in rows:
        assert row[2].strip("`") in cli_help, f"{row[0]}: no CLI flag {row[2]}"
        assert row[3], f"{row[0]}: effect is undocumented"
