"""The sharded backend's determinism contract and partitioner rules.

The conservative parallel backend's one promise is total invisibility:
same seed, serial vs ``--backend sharded --shards N``, byte-identical on
the result dict, the telemetry digests, and every artifact file.  These
tests hammer that promise across all nine builtin scenarios, both
transports, and the fabric-scale scenarios, then pin the partitioner's
packing, fault-pin, and error behavior.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.faultlab.campaign import (
    CampaignError,
    RunOptions,
    build_fault,
    prepare,
    run_scenario,
)
from repro.faultlab.faults import FAULT_KINDS, FaultModel
from repro.faultlab.scenarios import (
    BUILTIN_SCENARIOS,
    FABRIC_SCENARIOS,
    builtin_specs,
)
from repro.network.topology import chain
from repro.shard import build_plan, run_sharded_scenario
from repro.shard.partition import _atoms
from repro.shard import coordinator as coordinator_module
from repro.shard import transport as transport_module
from repro.shard.coordinator import run_sharded
from repro.shard.runner import default_margin_fs
from repro.shard.transport import InlineTransport, ProcessTransport
from repro.shard.worker import ShardWorker
from repro.sim.engine import Simulator
from repro.telemetry import Telemetry


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


@contextlib.contextmanager
def deadline(seconds, what):
    """Fail (rather than hang the suite) if the body outlives ``seconds``."""

    def hung(*_):
        raise AssertionError(f"{what} hung for {seconds}s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize(
        "spec, pins",
        [
            (
                {"kind": "partition", "a": "n1", "b": "n2",
                 "down_at_fs": 1, "up_at_fs": 2},
                ("n1", "n2"),
            ),
            (
                {"kind": "beacon-suppression", "node": "n1", "peer": "n2",
                 "start_fs": 1, "duration_fs": 1},
                ("n1",),
            ),
            ({"kind": "oscillator-glitch", "node": "n3", "at_fs": 1,
              "duration_fs": 1, "glitch_ppm": 5.0},
             ("n3",)),
        ],
        ids=lambda value: value["kind"] if isinstance(value, dict) else "",
    )
    def test_each_fault_says_which_nodes_it_pins(self, spec, pins):
        assert build_fault(spec, 0).pins(chain(5)) == pins

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

        prepared = prepare(builtin_specs(["baseline"], quick=True)[0])  # 4 atoms
        monkeypatch.setattr(runner, "default_jobs", lambda: 2)
        assert runner._auto_shards(prepared) == 2
        monkeypatch.setattr(runner, "default_jobs", lambda: 64)
        assert runner._auto_shards(prepared) == 4


# ----------------------------------------------------------------------
# Feature gates: what the sharded backend must refuse
# ----------------------------------------------------------------------
class TestFeatureGates:
    def spec(self):
        return builtin_specs(["baseline"], quick=True)[0]

    def refusals(self, breakage):
        """``[(type, message)]`` of the error each backend raises on
        :meth:`spec` with ``breakage`` merged in."""
        spec = dict(self.spec(), **breakage)
        errors = []
        for backend in ("scalar", "batched", "sharded"):
            with pytest.raises(CampaignError) as excinfo:
                run_scenario(
                    dict(spec), backend=backend, shards=2, shard_transport="inline"
                )
            errors.append((type(excinfo.value), str(excinfo.value)))
        return errors

    def test_observers_rejected(self):
        with pytest.raises(CampaignError, match="observers"):
            run_sharded_scenario(self.spec(), observers=[lambda: None])

    def test_profile_rejected(self):
        with pytest.raises(CampaignError, match="profile"):
            run_sharded_scenario(self.spec(), profile_dispatch=True)

    def test_custom_sim_factory_rejected(self):
        with pytest.raises(CampaignError, match="sim_factory"):
            run_sharded_scenario(self.spec(), sim_factory=lambda: Simulator())

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
        assert self.refusals(breakage) == [(CampaignError, message)] * 3

    @pytest.mark.parametrize(
        "breakage",
        [{"sample_interval_fs": value} for value in (0, -5, 1.5, "x")]
        + [{"checker": {"interval_fs": value}} for value in (0, 1.5, "x")]
        + [{"checker": {"start_fs": value}} for value in (1.5, "x")]
        + [
            {"checker": {key: value}}
            for key, values in (
                ("grace_fs", ("5", -1, 1.5)),
                ("bound_ticks_per_hop", ("4", 0)),
                ("slack_ticks", (None,)),
                ("transient_allowance_intervals", (1.5, True)),
                ("max_recorded", (-1,)),
                ("raise_on_violation", ("no",)),
            )
            for value in values
        ]
        + [{"checker": {"grace": 5}}],
        ids=["0", "-5", "1.5", "x", "checker-interval-0", "checker-interval-1.5",
             "checker-interval-x", "checker-start-1.5", "checker-start-x",
             "grace-str", "grace-negative", "grace-fraction", "per-hop-str",
             "per-hop-0", "slack-none", "allowance-fraction", "allowance-bool",
             "max-recorded-negative", "raise-str", "checker-unknown-key"],
    )
    def test_bad_sample_interval_rejected_identically_on_every_backend(
        self, breakage
    ):
        # Every run samples every four checker ticks and builds the checker
        # with the paper's bound, so a spec sets neither: whatever the
        # value, either key is refused by name on every backend.
        message = f"unknown scenario keys: {sorted(breakage)}"
        assert self.refusals(breakage) == [(CampaignError, message)] * 3

    @pytest.mark.parametrize("shards", [1.5, "2", True, 0])
    def test_shard_count_must_be_a_positive_int(self, shards):
        # Were: bare TypeError, bare TypeError, a silent one-shard run.
        with deadline(10, f"shards={shards!r}"):
            with pytest.raises(CampaignError, match="--shards must be an integer"):
                run_sharded_scenario(self.spec(), shards=shards, transport="inline")
            with pytest.raises(CampaignError, match=repr(shards)):
                build_plan(chain(4), [], shards, default_margin_fs())

    def test_fig6_rejects_sharded(self):
        from repro.experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp

        with pytest.raises(ValueError, match="sharded"):
            run_fig6_dtp(Fig6DtpConfig(), backend="sharded")


# ----------------------------------------------------------------------
# The process transport's failure modes: named error, no hang, no orphan
# ----------------------------------------------------------------------
class _SelfKillingWorker(ShardWorker):
    """Shard 1 SIGKILLs its own process inside its third window."""

    def service(self, grant_fs, arrivals):
        self.windows = getattr(self, "windows", 0) + 1
        if self.shard_id == 1 and self.windows == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().service(grant_fs, arrivals)


class _UnbuildableWorker(ShardWorker):
    def __init__(self, spec, seed, shard_id, *rest):
        if shard_id == 1:
            raise RuntimeError("shard one cannot be built")
        super().__init__(spec, seed, shard_id, *rest)


class TestProcessTransportFailures:
    """Worker classes are patched before ``launch`` forks, so the children
    inherit them."""

    def spec(self):
        return builtin_specs(["baseline"], quick=True)[0]

    def test_worker_killed_mid_window_is_a_named_error(self, monkeypatch):
        monkeypatch.setattr(transport_module, "ShardWorker", _SelfKillingWorker)
        with deadline(10, "a killed shard worker"):
            with pytest.raises(CampaignError) as excinfo:
                run_sharded_scenario(self.spec(), shards=2, transport="process")
        assert "shard 1 " in str(excinfo.value)
        assert f"exit code {-signal.SIGKILL}" in str(excinfo.value)
        assert multiprocessing.active_children() == []

    def launched(self, shards):
        prepared = prepare(self.spec())
        plan = build_plan(
            prepared.topology, prepared.faults, shards, default_margin_fs()
        )
        transport = ProcessTransport()
        transport.launch(prepared.spec, 0, plan, False, False)
        return transport

    @pytest.mark.parametrize("call", ["service", "finalize"])
    def test_send_to_a_dead_worker_is_a_named_error(self, call):
        with deadline(10, "a send to a dead shard worker"):
            transport = self.launched(2)
            try:
                victim = transport._procs[0]
                victim.kill()
                victim.join()
                with pytest.raises(CampaignError, match="shard 0 .*exit code -9"):
                    if call == "service":
                        transport.service([(1, []), (1, [])])
                    else:
                        transport.finalize(1)
            finally:
                transport.close()
        assert multiprocessing.active_children() == []

    def test_worker_that_raises_in_construction_ships_its_traceback(
        self, monkeypatch
    ):
        monkeypatch.setattr(transport_module, "ShardWorker", _UnbuildableWorker)
        with deadline(10, "an unbuildable shard worker"):
            with pytest.raises(CampaignError) as excinfo:
                run_sharded_scenario(self.spec(), shards=2, transport="process")
        message = str(excinfo.value)
        assert message.startswith("shard 1 failed:\nTraceback")
        assert "RuntimeError: shard one cannot be built" in message
        assert multiprocessing.active_children() == []

    def test_hung_worker_hits_the_reply_timeout_and_is_killed(self, monkeypatch):
        class Wedged(ShardWorker):
            def service(self, grant_fs, arrivals):
                time.sleep(3600)

        monkeypatch.setattr(transport_module, "ShardWorker", Wedged)
        monkeypatch.setattr(transport_module, "JOIN_TIMEOUT_S", 0.2)
        monkeypatch.setitem(
            transport_module.TRANSPORTS, "process", lambda: ProcessTransport(0.5)
        )
        with deadline(10, "a wedged shard worker"):
            with pytest.raises(CampaignError, match="shard 0 did not reply"):
                run_sharded_scenario(self.spec(), shards=2, transport="process")
        assert multiprocessing.active_children() == []


    def test_merge_walk_raising_mid_window_leaves_no_worker(self, monkeypatch):
        # The walk of round n runs while the workers run round n + 1.
        calls = []

        def failing_sample_grid(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("walk failed")

        monkeypatch.setattr(coordinator_module, "sample_grid", failing_sample_grid)
        with deadline(10, "a merge-walk failure with a window in flight"):
            with pytest.raises(RuntimeError, match="walk failed"):
                run_sharded_scenario(self.spec(), shards=2, transport="process")
        assert multiprocessing.active_children() == []

    def test_workers_exit_when_the_coordinator_is_killed(self):
        # Every worker inherits ``held``; it reads EOF once all have exited.
        watch, held = multiprocessing.Pipe(duplex=False)

        def coordinator():
            watch.close()
            self.launched(3)
            os.kill(os.getpid(), signal.SIGKILL)

        doomed = multiprocessing.Process(target=coordinator)
        doomed.start()
        held.close()
        with deadline(10, "shard workers orphaned by a killed coordinator"):
            with pytest.raises(EOFError):
                watch.recv()
            doomed.join()
        assert doomed.exitcode == -signal.SIGKILL


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_pipelined_rounds_keep_the_lock_step_health_sequence(tmp_path, transport):
    """The grant / service / stall records of a 2-shard ``baseline`` run, in
    file order, are the lock-step coordinator's (sha256 of the event lines
    it wrote; they carry simulated time only)."""
    spec = builtin_specs(["baseline"], quick=True)[0]
    run_scenario(
        dict(spec), backend="sharded", shards=2, shard_transport=transport,
        health_dir=str(tmp_path),
    )
    lines = (tmp_path / "baseline.health.jsonl").read_text().splitlines()
    events = [line for line in lines if json.loads(line)["record"] == "event"]
    kinds = {json.loads(line)["name"] for line in events}
    assert {"shard-grant", "shard-service"} <= kinds <= {
        "shard-grant", "shard-service", "shard-stall"
    }
    assert len(events) == 2610
    assert hashlib.sha256("\n".join(events).encode()).hexdigest() == (
        "4d0979b4a0a9e5d5a3355dec13ead5691839a1441ceb080bc15399851ad7b582"
    )


def test_fault_without_pins_is_refused_by_kind_on_sharded_only(monkeypatch):
    """``FaultModel.pins`` has no silent default: a new fault kind runs on
    the single-process backends and is refused, by kind, where it would
    have to be placed."""

    class Nudge(FaultModel):
        kind = "nudge"

        def _arm(self, ctx):
            ctx.network.sim.schedule_at(1, lambda: None)

    monkeypatch.setitem(FAULT_KINDS, "nudge", Nudge)
    spec = builtin_specs(["baseline"], quick=True)[0]
    spec["faults"] = [{"kind": "nudge"}]
    assert canon(run_scenario(dict(spec), backend="scalar")) == canon(
        run_scenario(dict(spec), backend="batched")
    )
    for transport in ("inline", "process"):
        with pytest.raises(
            CampaignError, match="fault kind 'nudge' has no shard pin rule"
        ):
            run_scenario(
                dict(spec), backend="sharded", shards=2, shard_transport=transport
            )


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


#: The repo benchmark's fabric (``fattree-sharded2`` and its serial twin), as
#: a literal: 336 nodes, D = 6, the Fig. 6b beacon interval.
BENCH_FABRIC = {
    "name": "bench-fabric",
    "topology": {"kind": "fat-tree", "k": 8, "hosts_per_edge": 8},
    "duration_fs": 200_000_000_000,
    "config": {"beacon_interval_ticks": 1200},
    "faults": [],
}


def test_fabric_accounting_is_exact_while_shards_batch():
    stats = {}
    sharded = run_sharded_scenario(
        dict(BENCH_FABRIC), seed=1, shards=2, transport="inline", stats_out=stats
    )
    assert stats["rounds"] == 56
    assert stats["events"] == 113987
    assert stats["virtual_events"] > stats["events"] // 2
    assert sharded == run_scenario(dict(BENCH_FABRIC), seed=1)
    assert sharded == run_scenario(dict(BENCH_FABRIC), seed=1, backend="scalar")


def test_fabric_promotes_every_owned_direction_and_no_cut_one():
    prepared = prepare(dict(BENCH_FABRIC, duration_fs=40_000_000_000))
    plan = build_plan(prepared.topology, prepared.faults, 2, default_margin_fs())
    transport = InlineTransport()
    run_sharded(prepared, 1, RunOptions.of(backend="sharded"), plan, transport)
    cut = {channel.src_port for channel in plan.channels}
    assert len(cut) == 2 * 88
    for shard, worker in enumerate(transport._workers):
        owned = set(plan.owned_nodes[shard])
        inner = {
            port.name for (a, b), port in worker.network.ports.items()
            if a in owned and b in owned
        }
        source = worker.engine.fastpath
        assert {port.name for port in source._dirs} == inner
        assert source.promotions == len(inner) and source.demotions == 0
        assert not inner & cut


def test_fat_tree_k8_identical_on_four_shards():
    # The builtin's 25,000-tick beacons time the violation path (ROADMAP):
    # run the fabric on an interval that holds its bound.
    spec = builtin_specs(["fat-tree-k8"], quick=True)[0]
    spec["config"] = dict(spec.get("config", {}), beacon_interval_ticks=1200)
    spec["duration_fs"] = 80_000_000_000
    serial, sharded = run_both(spec, shards=4, transport="process")
    assert canon(serial) == canon(sharded)

    # Traced, two shards.  336 devices draw from ~1,280 integer-fs periods, so
    # some on different shards tick on one grid and transmit at the same
    # femtosecond for the whole run; the shard key orders such a cross-shard
    # tie by shard, the serial counter by ancestry (docs/SHARDING.md, "Known
    # gap").  Everything except the order inside one femtosecond is equal,
    # and the batching shards write the trace the scalar shards of PR 22 did.
    traced = {}
    for backend in ("batched", "sharded"):
        telemetry = Telemetry()
        result = run_scenario(
            dict(spec), backend=backend, shards=2, shard_transport="process",
            telemetry=telemetry,
        )
        digest = result["telemetry"].pop("trace_digest")
        traced[backend] = (canon(result), sorted(telemetry.tracer.records), digest)
    assert traced["sharded"][:2] == traced["batched"][:2]
    assert traced["batched"][2].startswith("851986ed33f9f8cf")
    assert traced["sharded"][2].startswith("f313eb9ae3011d53")
