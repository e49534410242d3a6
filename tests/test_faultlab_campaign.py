"""The campaign runner: spec validation, determinism, acceptance matrix."""

import json

import pytest

from repro.faultlab import (
    BUILTIN_SCENARIOS,
    CampaignError,
    build_fault,
    build_topology,
    builtin_specs,
    metrics_digest,
    render_campaign,
    run_campaign,
    run_scenario,
)
from repro.faultlab.campaign import prepare
from repro.faultlab.cli import main as faultlab_main
from repro.faultlab.scenarios import FABRIC_SCENARIOS
from repro.sim import units


def _spec(name="baseline", **overrides):
    spec = {
        "name": name,
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": 600 * units.US,
        "faults": [],
    }
    spec.update(overrides)
    return spec


US = units.US


def _fault(kind, **params):
    """``_spec`` overrides holding one fault of ``kind``."""
    return {"faults": [{"kind": kind, **params}]}


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_topology_builders():
    assert len(build_topology({"kind": "chain", "hosts": 4}).nodes) == 4
    assert len(build_topology({"kind": "star", "hosts": 3}).nodes) == 4
    assert len(
        build_topology({"kind": "two-level-tree", "branches": 2, "leaves": 2}).nodes
    ) == 7
    assert build_topology({"kind": "paper-testbed"}).nodes
    assert build_topology({"kind": "fat-tree", "k": 2}).nodes


def test_topology_spec_errors():
    with pytest.raises(CampaignError, match="unknown topology kind"):
        build_topology({"kind": "moebius"})
    with pytest.raises(CampaignError, match="missing parameter"):
        build_topology({"kind": "chain"})
    with pytest.raises(CampaignError, match="unknown topology parameters"):
        build_topology({"kind": "chain", "hosts": 3, "color": "red"})


def test_fault_spec_errors():
    with pytest.raises(CampaignError, match="unknown fault kind"):
        build_fault({"kind": "gremlin"})
    with pytest.raises(CampaignError, match="bad parameters"):
        build_fault({"kind": "partition", "a": "n0"})
    fault = build_fault(
        {"kind": "partition", "a": "n0", "b": "n1",
         "down_at_fs": 1, "up_at_fs": 2},
        index=3,
    )
    assert fault.name == "partition-3"


def test_scenario_spec_errors():
    with pytest.raises(CampaignError, match="unknown scenario keys"):
        run_scenario(_spec(color="red"))
    with pytest.raises(CampaignError, match="'topology' and 'duration_fs'"):
        run_scenario({"name": "x"})
    with pytest.raises(CampaignError, match="duplicate fault name"):
        run_scenario(
            _spec(faults=[
                {"kind": "partition", "a": "n0", "b": "n1",
                 "down_at_fs": 1 * units.US, "up_at_fs": 2 * units.US,
                 "name": "p"},
                {"kind": "partition", "a": "n1", "b": "n2",
                 "down_at_fs": 1 * units.US, "up_at_fs": 2 * units.US,
                 "name": "p"},
            ])
        )
    with pytest.raises(CampaignError, match="need a 'name'"):
        run_campaign([{"topology": {}, "duration_fs": 1}])


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"duration_fs": "abc"}, "duration_fs must be an integer, got 'abc'"),
        ({"duration_fs": None}, "duration_fs must be an integer, got None"),
        ({"duration_fs": 1.5e6}, "duration_fs must be an integer, got 1500000.0"),
        ({"topology": ["chain", 3]}, "topology must be a dict"),
        ({"topology": {"kind": "chain", "hosts": "x"}}, "bad parameters for topology 'chain'"),
        ({"faults": {"kind": "partition"}}, "faults must be a list"),
        ({"faults": [3]}, "fault 0 must be a dict, got 3"),
        ({"config": {"beacon_intervall": 5}}, "bad config: .*beacon_intervall"),
        ({"skew_ppm": {"n0": "fast"}}, r"skew_ppm\['n0'\] must be a number, got 'fast'"),
        ({"skew_ppm": {"n9": 20.0}}, "skew_ppm names 'n9', which is not in the topology"),
        # Every fault that names a node or a link: before, each passed
        # ``prepare`` and died mid-run on a bare KeyError.
        (_fault("link-flap", a="zz", b="n1", down_every_fs=2 * US, down_for_fs=US),
         "fault 0: a names 'zz', which is not in the topology"),
        (_fault("link-flap", a="n0", b="n2", down_every_fs=2 * US, down_for_fs=US),
         "fault 0: a-b 'n0'-'n2' is not a link"),
        (_fault("ber-burst", a="n0", b="zz", start_fs=US, duration_fs=US, ber=1e-3),
         "fault 0: b names 'zz', which is not in the topology"),
        (_fault("partition", a="zz", b="n1", down_at_fs=US, up_at_fs=2 * US),
         "fault 0: a names 'zz', which is not in the topology"),
        (_fault("node-crash", node="zz", at_fs=US, restart_after_fs=US),
         "fault 0: node names 'zz', which is not in the topology"),
        (_fault("beacon-suppression", node="n0", peer="zz", start_fs=US, duration_fs=US),
         "fault 0: peer names 'zz', which is not in the topology"),
        (_fault("beacon-suppression", node="n0", peer="n2", start_fs=US, duration_fs=US),
         "fault 0: node-peer 'n0'-'n2' is not a link"),
        (_fault("two-faced", node="n1", victim="zz", lie_ticks=5),
         "fault 0: victim names 'zz', which is not in the topology"),
        (_fault("oscillator-glitch", node="zz", at_fs=US, duration_fs=US, glitch_ppm=50.0),
         "fault 0: node names 'zz', which is not in the topology"),
        (_fault("runaway", node="zz"),
         "fault 0: node names 'zz', which is not in the topology"),
    ],
    ids=[
        "duration-str", "duration-none", "duration-float", "topology-list",
        "hosts-str", "faults-dict", "fault-int", "config-key",
        "skew-str", "skew-unknown-node", "link-flap-unknown-node",
        "link-flap-not-a-link", "ber-burst-unknown-node", "partition-unknown-node",
        "node-crash-unknown-node",
        "beacon-suppression-unknown-peer", "beacon-suppression-not-a-link",
        "two-faced-unknown-victim", "oscillator-glitch-unknown-node",
        "runaway-unknown-node",
    ],
)
def test_bad_spec_values_are_named_campaign_errors(overrides, message):
    with pytest.raises(CampaignError, match=message):
        prepare(_spec(**overrides))


def test_every_builtin_spec_prepares():
    names = list(BUILTIN_SCENARIOS) + list(FABRIC_SCENARIOS)
    for quick in (True, False):
        for spec in builtin_specs(names, quick=quick):
            assert prepare(spec).name == spec["name"]


def test_builtin_catalogue():
    assert len(BUILTIN_SCENARIOS) >= 6
    specs = builtin_specs()
    assert [s["name"] for s in specs] == list(BUILTIN_SCENARIOS)
    quick = builtin_specs(["baseline"], quick=True)[0]
    full = builtin_specs(["baseline"])[0]
    assert quick["duration_fs"] < full["duration_fs"]
    with pytest.raises(CampaignError, match="unknown scenario"):
        builtin_specs(["volcano"])


# ----------------------------------------------------------------------
# Determinism (acceptance criterion)
# ----------------------------------------------------------------------
def test_same_seed_same_digest():
    specs = builtin_specs(["baseline", "link-flap"], quick=True)
    first = run_campaign(specs, base_seed=5)
    second = run_campaign(specs, base_seed=5)
    assert metrics_digest(first) == metrics_digest(second)


def test_different_seed_different_digest():
    specs = builtin_specs(["link-flap"], quick=True)
    assert metrics_digest(run_campaign(specs, base_seed=5)) != metrics_digest(
        run_campaign(specs, base_seed=6)
    )


def test_parallel_campaign_matches_serial():
    specs = builtin_specs(["baseline", "two-faced"], quick=True)
    serial = run_campaign(specs, base_seed=0, jobs=1)
    parallel = run_campaign(specs, base_seed=0, jobs=2)
    assert metrics_digest(serial) == metrics_digest(parallel)


def test_seed_follows_scenario_name_not_position():
    # Reordering scenarios must not change any individual result.
    forward = run_campaign(
        builtin_specs(["baseline", "link-flap"], quick=True), base_seed=0
    )
    backward = run_campaign(
        builtin_specs(["link-flap", "baseline"], quick=True), base_seed=0
    )
    assert forward["link-flap"] == backward["link-flap"]
    assert forward["baseline"] == backward["baseline"]


def test_metrics_are_json_roundtrippable():
    result = run_scenario(_spec(), seed=3)
    assert json.loads(json.dumps(result)) == result


class _ReadingObserver:
    """A read-only campaign observer: periodic counter reads on its own
    events, at intervals drawn from a stream no scenario component uses."""

    def __init__(self):
        self.reads = 0

    def __call__(self, *, sim, network, streams, checker, telemetry, duration_fs):
        rng = streams.stream("observer-contract/jitter")
        devices = list(network.devices.values())

        def _read():
            for device in devices:
                device.global_counter(sim.now)
            self.reads += 1
            sim.schedule(rng.randint(5, 50) * units.US, _read)

        sim.schedule(rng.randint(5, 50) * units.US, _read)


@pytest.mark.parametrize("backend", ["scalar", "batched"])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_observer_leaves_every_builtin_digest_untouched(name, backend):
    """The ``run_scenario(observers=...)`` contract: an observer that
    schedules its own events and draws from a new named stream leaves
    the scenario's metrics byte-identical to an observer-free run."""
    spec = BUILTIN_SCENARIOS[name](True)
    plain = run_scenario(dict(spec), seed=99, backend=backend)
    observer = _ReadingObserver()
    watched = run_scenario(
        dict(spec), seed=99, backend=backend, observers=[observer]
    )
    assert metrics_digest(watched) == metrics_digest(plain)
    assert observer.reads > 0


# ----------------------------------------------------------------------
# Acceptance matrix
# ----------------------------------------------------------------------
def test_baseline_reports_zero_violations():
    [result] = run_campaign(builtin_specs(["baseline"], quick=True)).values()
    assert result["violations_total"] == 0
    assert result["ticks_above_bound"] == 0
    assert result["all_synchronized"] == 1
    assert result["checks_run"] > 0


def test_two_faced_is_flagged():
    [result] = run_campaign(builtin_specs(["two-faced"], quick=True)).values()
    assert result["violations_total"] > 0
    assert result["violations"].get("pair-bound", 0) > 0
    assert result["time_above_bound_fs"] > 0
    assert result["first_violations"]
    assert result["first_violations"][0]["invariant"] == "pair-bound"


def test_handled_faults_record_recoveries():
    results = run_campaign(
        builtin_specs(["link-flap", "partition-heal", "node-crash"], quick=True)
    )
    for name, result in results.items():
        assert result["violations_total"] == 0, name
        assert result["recovery"], name
        for stats in result["recovery"].values():
            assert stats["count"] >= 1
            assert stats["max_fs"] >= stats["mean_fs"] >= 0


@pytest.mark.slow
def test_full_campaign_acceptance_matrix():
    results = run_campaign(builtin_specs(), base_seed=0)
    assert len(results) >= 6
    for name, result in results.items():
        if name == "two-faced":
            assert result["violations_total"] > 0
        else:
            assert result["violations_total"] == 0, name
    digest_again = metrics_digest(run_campaign(builtin_specs(), base_seed=0))
    assert metrics_digest(results) == digest_again


# ----------------------------------------------------------------------
# Rendering and CLI
# ----------------------------------------------------------------------
def test_render_ends_with_campaign_digest():
    results = run_campaign(builtin_specs(["baseline"], quick=True))
    lines = render_campaign(results)
    assert lines[-1] == f"campaign sha256: {metrics_digest(results)}"
    assert any("baseline" in line for line in lines[:-1])


def test_cli_list(capsys):
    assert faultlab_main(["--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[: len(BUILTIN_SCENARIOS)] == list(BUILTIN_SCENARIOS)
    assert out[len(BUILTIN_SCENARIOS) :] == [
        f"{name}  (fabric-scale; by explicit name only)"
        for name in FABRIC_SCENARIOS
    ]


def test_cli_json_output_is_deterministic(capsys):
    assert faultlab_main(["--quick", "--seed", "3", "baseline", "--json"]) == 0
    first = capsys.readouterr().out
    assert faultlab_main(["--quick", "--seed", "3", "baseline", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert set(parsed) == {"baseline"}
    assert parsed["baseline"]["violations_total"] == 0


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        faultlab_main(["volcano"])


def test_umbrella_cli_dispatches(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["faultlab", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[: len(BUILTIN_SCENARIOS)] == list(BUILTIN_SCENARIOS)


def test_cli_reports_runtime_campaign_error_in_one_line(capsys):
    argv = ["--quick", "baseline", "--backend", "sharded", "--shards", "9"]
    assert faultlab_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("faultlab: --shards 9 exceeds the 4 cut partitions")
    assert captured.err.count("\n") == 1
