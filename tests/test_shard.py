"""The sharded backend's determinism contract and partitioner rules.

The conservative parallel backend's one promise is total invisibility:
same seed, serial vs ``--backend sharded --shards N``, byte-identical on
the result dict, the telemetry digests, and every artifact file.  These
tests hammer that promise across all nine builtin scenarios, both
transports, and the fabric-scale scenarios, then pin the partitioner's
packing, fault-pin, and error behavior.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path

import pytest

from repro.faultlab.campaign import CampaignError, build_fault, run_scenario
from repro.faultlab.scenarios import (
    BUILTIN_SCENARIOS,
    FABRIC_SCENARIOS,
    builtin_specs,
)
from repro.network.topology import chain
from repro.shard import build_plan, resolve_shards, run_sharded_scenario
from repro.shard.partition import _atoms
from repro.shard.runner import default_margin_fs
from repro.sim.engine import Simulator


def canon(result) -> str:
    return json.dumps(result, sort_keys=True)


def run_both(spec, shards=2, transport="inline", seed=0):
    serial = run_scenario(dict(spec), seed=seed)
    sharded = run_scenario(
        dict(spec),
        seed=seed,
        backend="sharded",
        shards=shards,
        shard_transport=transport,
    )
    return serial, sharded


def tree(root: Path):
    """{relative path: bytes} for every file under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ----------------------------------------------------------------------
# Byte-identity: the whole point
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("name", list(BUILTIN_SCENARIOS))
    def test_every_builtin_identical_at_two_shards(self, name):
        spec = builtin_specs([name], quick=True)[0]
        # link-flap's fault pins merge all but one node into one atom;
        # two shards is the most its topology can be cut into — which is
        # exactly what the parametrization exercises everywhere.
        serial, sharded = run_both(spec, shards=2)
        assert canon(serial) == canon(sharded)

    def test_telemetry_digests_identical(self, tmp_path):
        # Results plus the full trace / metrics / prometheus / flight tree,
        # scalar vs each other backend, on the fault-carrying builtins.
        for name in ("link-flap", "partition-heal", "two-faced"):
            spec = builtin_specs([name], quick=True)[0]
            dirs = {}
            for backend in ("scalar", "batched", "sharded"):
                base = tmp_path / name / backend
                kwargs = dict(
                    seed=0,
                    trace_dir=str(base / "trace"),
                    metrics_dir=str(base / "metrics"),
                    flight_dir=str(base / "flight"),
                    backend=backend,
                )
                if backend == "sharded":
                    kwargs.update(shards=2, shard_transport="inline")
                dirs[backend] = (run_scenario(dict(spec), **kwargs), base)
            scalar_result, scalar_base = dirs["scalar"]
            assert "telemetry" in scalar_result  # digests actually compared
            for backend in ("batched", "sharded"):
                result, base = dirs[backend]
                assert canon(result) == canon(scalar_result), (name, backend)
                assert tree(base) == tree(scalar_base), (name, backend)

    def test_one_shard_is_identical_too(self):
        spec = builtin_specs(["baseline"], quick=True)[0]
        serial, sharded = run_both(spec, shards=1)
        assert canon(serial) == canon(sharded)

    def test_process_transport_identical_with_artifacts(self, tmp_path):
        spec = builtin_specs(["baseline"], quick=True)[0]
        results = {}
        for mode in ("serial", "process"):
            base = tmp_path / mode
            kwargs = dict(
                seed=0,
                trace_dir=str(base / "trace"),
                metrics_dir=str(base / "metrics"),
                flight_dir=str(base / "flight"),
            )
            if mode == "process":
                kwargs.update(
                    backend="sharded", shards=2, shard_transport="process"
                )
            results[mode] = (run_scenario(dict(spec), **kwargs), base)
        assert canon(results["serial"][0]) == canon(results["process"][0])
        assert tree(results["serial"][1]) == tree(results["process"][1])

    def test_clos_fabric_identical(self):
        spec = builtin_specs(["clos-fabric"], quick=True)[0]
        serial, sharded = run_both(spec, shards=4)
        assert canon(serial) == canon(sharded)

    def test_seed_changes_both_the_same_way(self):
        spec = builtin_specs(["ber-burst"], quick=True)[0]
        serial, sharded = run_both(spec, seed=7)
        assert canon(serial) == canon(sharded)
        assert serial["seed"] == 7


def test_unnamed_spec_runs_sharded_with_health_and_snapshots(tmp_path):
    """A spec without a name is "scenario" on every path — including the
    sharded coordinator's health source and file, and the snapshot stream
    on any backend (both were: KeyError 'name')."""
    spec = {"topology": {"kind": "chain", "hosts": 4}, "duration_fs": 200_000_000_000}
    health, snaps, serial_snaps = (tmp_path / d for d in ("health", "snaps", "serial"))
    sharded = run_scenario(
        dict(spec),
        backend="sharded",
        shards=2,
        shard_transport="inline",
        health_dir=str(health),
        snapshot_dir=str(snaps),
    )
    assert [p.name for p in health.iterdir()] == ["scenario.health.jsonl"]
    header = (health / "scenario.health.jsonl").read_text().splitlines()[0]
    assert "shard-coordinator/scenario" in header
    assert sharded["scenario"] == "scenario"
    assert sharded == run_scenario(dict(spec), snapshot_dir=str(serial_snaps))
    assert tree(snaps) == tree(serial_snaps)
    assert list(tree(snaps)) == ["scenario.snapshots.jsonl"]


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------
class TestPartitioner:
    def test_chain_cuts_in_the_middle(self):
        plan = build_plan(chain(4), [], 2, default_margin_fs())
        assert plan.owned_nodes == (("n0", "n1"), ("n2", "n3"))
        assert {c.src_port for c in plan.channels} == {"n1->n2", "n2->n1"}
        for channel in plan.channels:
            assert channel.lookahead_fs == channel.delay_fs - plan.margin_fs
            assert channel.lookahead_fs > 0

    def test_node_crash_pins_node_and_neighbors(self):
        topology = chain(4)
        fault = build_fault(
            {
                "kind": "node-crash",
                "node": "n1",
                "at_fs": 1,
                "restart_after_fs": 1,
            },
            0,
        )
        atoms = _atoms(topology, [fault])
        assert sorted(sorted(a) for a in atoms) == [["n0", "n1", "n2"], ["n3"]]
        plan = build_plan(topology, [fault], 2, default_margin_fs())
        shard_of = plan.node_shard
        assert shard_of["n0"] == shard_of["n1"] == shard_of["n2"]
        assert shard_of["n3"] != shard_of["n1"]

    def test_more_shards_than_atoms_rejected(self):
        with pytest.raises(CampaignError, match="cut partitions"):
            build_plan(chain(3), [], 4, default_margin_fs())

    def test_cut_delay_must_exceed_margin(self):
        topology = chain(4)
        delay = topology.edges[0].cable.forward_delay_fs()
        with pytest.raises(CampaignError, match="lookahead margin"):
            build_plan(topology, [], 2, margin_fs=delay)

    def test_resolve_shards_defaults_to_jobs_capped_by_atoms(self, monkeypatch):
        import repro.shard.runner as runner

        spec = builtin_specs(["baseline"], quick=True)[0]  # 4 atoms
        monkeypatch.setattr(runner, "default_jobs", lambda: 2)
        assert resolve_shards(spec) == 2
        monkeypatch.setattr(runner, "default_jobs", lambda: 64)
        assert resolve_shards(spec) == 4
        assert resolve_shards(spec, shards=3) == 3  # explicit passthrough


# ----------------------------------------------------------------------
# Feature gates: what the sharded backend must refuse
# ----------------------------------------------------------------------
class TestFeatureGates:
    def spec(self):
        return builtin_specs(["baseline"], quick=True)[0]

    def test_observers_rejected(self):
        with pytest.raises(CampaignError, match="observers"):
            run_sharded_scenario(self.spec(), observers=[lambda: None])

    def test_profile_rejected(self):
        with pytest.raises(CampaignError, match="profile"):
            run_sharded_scenario(self.spec(), profile_dispatch=True)

    def test_custom_sim_factory_rejected(self):
        with pytest.raises(CampaignError, match="sim_factory"):
            run_sharded_scenario(self.spec(), sim_factory=lambda: Simulator())

    def test_raise_on_violation_rejected(self):
        spec = self.spec()
        spec["checker"] = {"raise_on_violation": True}
        with pytest.raises(CampaignError, match="raise_on_violation"):
            run_sharded_scenario(spec)

    def test_unknown_transport_rejected(self):
        with pytest.raises(CampaignError, match="transport"):
            run_sharded_scenario(self.spec(), transport="carrier-pigeon")

    def test_too_many_shards_rejected_with_clear_error(self):
        with pytest.raises(CampaignError, match="rerun with a smaller"):
            run_sharded_scenario(self.spec(), shards=64)

    @pytest.mark.parametrize(
        "breakage, message",
        [
            (
                {
                    "faults": [
                        {"kind": "partition", "name": "cut", "a": "n0",
                         "b": "n1", "down_at_fs": 1, "up_at_fs": 2},
                        {"kind": "partition", "name": "cut", "a": "n1",
                         "b": "n2", "down_at_fs": 1, "up_at_fs": 2},
                    ]
                },
                "duplicate fault name 'cut'",
            ),
            ({"duration_fs": 0}, "duration_fs must be positive"),
            ({"sharding": 2}, "unknown scenario keys: ['sharding']"),
        ],
        ids=["duplicate-fault-name", "bad-duration", "unknown-key"],
    )
    def test_bad_specs_rejected_identically_on_every_backend(
        self, breakage, message
    ):
        spec = dict(self.spec(), **breakage)
        errors = []
        for backend in ("scalar", "batched", "sharded"):
            with pytest.raises(CampaignError) as excinfo:
                run_scenario(
                    dict(spec), backend=backend, shards=2, shard_transport="inline"
                )
            errors.append((type(excinfo.value), str(excinfo.value)))
        assert errors == [(CampaignError, message)] * 3

    @pytest.mark.parametrize("interval", [0, -5, 1.5, "x"])
    def test_bad_sample_interval_rejected_identically_on_every_backend(
        self, interval
    ):
        # Unvalidated, 0 never returns: the sampler reschedules itself (and
        # the coordinator's grid walks ``j * 0``) at the same femtosecond.
        def hung(*_):
            raise AssertionError(f"sample_interval_fs={interval!r} hangs the run")

        spec = dict(self.spec(), sample_interval_fs=interval)
        errors = []
        previous = signal.signal(signal.SIGALRM, hung)
        try:
            for backend in ("scalar", "batched", "sharded"):
                signal.alarm(10)
                with pytest.raises(CampaignError) as excinfo:
                    run_scenario(
                        dict(spec), backend=backend, shards=2, shard_transport="inline"
                    )
                errors.append((type(excinfo.value), str(excinfo.value)))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        message = f"sample_interval_fs must be a positive integer, got {interval!r}"
        assert errors == [(CampaignError, message)] * 3

    def test_live_handle_builder_rejects_sharded(self):
        from repro.scenarios import build

        with pytest.raises(ValueError, match="sharded"):
            build("rack", backend="sharded")

    def test_fig6_rejects_sharded(self):
        from repro.experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp

        with pytest.raises(ValueError, match="sharded"):
            run_fig6_dtp(Fig6DtpConfig(), backend="sharded")


# ----------------------------------------------------------------------
# Fabric scenarios and CLI wiring
# ----------------------------------------------------------------------
class TestFabricScenarios:
    def test_resolvable_by_explicit_name_only(self):
        assert not set(FABRIC_SCENARIOS) & set(BUILTIN_SCENARIOS)
        default = {spec["name"] for spec in builtin_specs(quick=True)}
        assert default == set(BUILTIN_SCENARIOS)
        spec = builtin_specs(["fat-tree-k8"], quick=True)[0]
        assert spec["topology"]["kind"] == "fat-tree"

    def test_fat_tree_k8_shape(self):
        from repro.faultlab.campaign import build_topology

        spec = builtin_specs(["fat-tree-k8"], quick=True)[0]
        topology = build_topology(spec["topology"])
        assert len(topology.nodes) == 336
        assert 2 * len(topology.edges) == 1024  # port directions
        assert topology.diameter_hops() == 6

    def test_cli_stdout_identical_serial_vs_sharded(self, capsys):
        from repro.faultlab.cli import main as faultlab_main

        assert faultlab_main(["--quick", "baseline", "--json"]) == 0
        serial_out = capsys.readouterr().out
        assert (
            faultlab_main(
                [
                    "--quick",
                    "baseline",
                    "--json",
                    "--backend",
                    "sharded",
                    "--shards",
                    "2",
                    "--shard-transport",
                    "inline",
                ]
            )
            == 0
        )
        sharded_out = capsys.readouterr().out
        assert serial_out == sharded_out

    def test_stats_out_reports_rounds_and_events(self):
        stats = {}
        spec = builtin_specs(["baseline"], quick=True)[0]
        result = run_sharded_scenario(
            spec, shards=2, transport="inline", stats_out=stats
        )
        assert stats["shards"] == 2
        assert stats["rounds"] > 0
        assert stats["events"] > 0
        assert stats["wall_ns"] > 0
        assert "rounds" not in result  # stats never leak into the result


@pytest.mark.skipif(
    os.environ.get("RUN_SHARD_SLOW") != "1",
    reason="set RUN_SHARD_SLOW=1 for the fat-tree identity run (slow)",
)
def test_fat_tree_k8_identical_on_four_shards():
    spec = builtin_specs(["fat-tree-k8"], quick=True)[0]
    serial, sharded = run_both(spec, shards=4, transport="process")
    assert canon(serial) == canon(sharded)
