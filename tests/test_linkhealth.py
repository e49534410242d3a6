"""Link supervision (``repro.linkhealth``): FSM, gate, rejoin, identity.

The acceptance matrix for the self-healing-links subsystem:

* every flapped link in the ``flap-storm`` scenario deterministically
  traverses DOWN -> RECONNECTING -> RESYNC -> UP, visible as
  ``EV_LINK_*`` trace events;
* the 4TD checker records zero violations across a >= 10-seed sweep
  (rejoining links are edge-quarantined until their clean-interval
  handshake completes, so mid-recovery data never pollutes the bound);
* all three backends (scalar, batched, sharded) replay the recovery
  byte-identically — results, telemetry digests, and artifact trees;
* the nine builtin scenarios with supervision enabled but no faults
  active are byte-identical across backends (the supervisor is silent
  on a healthy link);
* the claim-based :class:`~repro.linkhealth.gate.LinkGate` reproduces
  the legacy fault semantics exactly while arbitrating between faults
  and the recovery FSM.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dtp.network import DtpNetwork
from repro.dtp.port import PortState
from repro.faultlab.campaign import CampaignError, run_scenario
from repro.faultlab.invariants import InvariantChecker
from repro.faultlab.scenarios import (
    BUILTIN_SCENARIOS,
    LINKHEALTH_SCENARIOS,
    builtin_specs,
)
from repro.linkhealth import (
    ADMIN_CLAIM,
    LinkGate,
    LinkHealthConfig,
    linkhealth_config_from_value,
)
from repro.network.topology import chain
from repro.sim import units
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    EV_LINK_RECONNECT,
    EV_LINK_RELEASE,
    EV_LINK_RESYNC,
    EV_LINK_STATE,
    LINK_STATE_CODES,
)

STATE_NAMES = LINK_STATE_CODES  # EV_LINK_STATE ``a`` -> state name


def canon(result) -> str:
    return json.dumps(result, sort_keys=True)


def tree(root: Path):
    """{relative path: bytes} for every file under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def link_events(telemetry: Telemetry, link: str):
    """The (kind, a, b) trace records for one supervised link, in order."""
    tracer = telemetry.tracer
    sid = tracer.subject_id(f"link/{link}")
    return [
        (kind, a, b)
        for (_, kind, subject, a, b) in tracer.records
        if subject == sid
    ]


# ----------------------------------------------------------------------
# Recovery FSM traversal (the tentpole's determinism contract)
# ----------------------------------------------------------------------
class TestRecoveryTraversal:
    def run_storm(self, seed=1):
        spec = builtin_specs(["flap-storm"], quick=True)[0]
        telemetry = Telemetry()
        result = run_scenario(dict(spec), seed=seed, telemetry=telemetry)
        return spec, telemetry, result

    def test_every_flapped_link_walks_the_fsm(self):
        spec, telemetry, result = self.run_storm()
        flapped = ["-".join(pair) for pair in spec["faults"][0]["links"]]
        for link in flapped:
            states = [
                STATE_NAMES[a]
                for (kind, a, _) in link_events(telemetry, link)
                if kind == EV_LINK_STATE
            ]
            # Each storm round is one full arc; rounds repeat verbatim.
            assert states, f"{link} emitted no EV_LINK_STATE events"
            arc = ["down", "reconnecting", "resync", "up"]
            flaps = spec["faults"][0]["flaps"]
            assert states == arc * flaps

    def test_reconnect_resync_release_events_present(self):
        spec, telemetry, result = self.run_storm()
        for link in ("n1-n2", "n3-n4"):
            kinds = [kind for (kind, _, _) in link_events(telemetry, link)]
            assert EV_LINK_RECONNECT in kinds
            assert EV_LINK_RESYNC in kinds
            assert EV_LINK_RELEASE in kinds

    def test_release_only_after_clean_interval_count(self):
        _, telemetry, _ = self.run_storm()
        config = LinkHealthConfig()
        events = link_events(telemetry, "n1-n2")
        for i, (kind, a, b) in enumerate(events):
            if kind != EV_LINK_RELEASE:
                continue
            # The resync progress ticks leading into a release must have
            # counted all the way up to the configured clean-window count.
            resyncs = [e for e in events[:i] if e[0] == EV_LINK_RESYNC]
            assert resyncs, "release without any resync progress"
            last = resyncs[-1]
            assert last[1] == last[2] == config.resync_clean_intervals

    def test_healthy_links_stay_silent(self):
        spec, telemetry, result = self.run_storm()
        for link in ("n0-n1", "n2-n3", "n4-n5"):
            assert link_events(telemetry, link) == []
            summary = result["linkhealth"]["links"][link]
            assert summary == {
                "state": "up",
                "downs": 0,
                "reconnect_attempts": 0,
                "resyncs": 0,
                "releases": 0,
            }

    def test_summary_counts_match_trace(self):
        spec, telemetry, result = self.run_storm()
        for link in ("n1-n2", "n3-n4"):
            events = link_events(telemetry, link)
            summary = result["linkhealth"]["links"][link]
            assert summary["state"] == "up"
            assert summary["downs"] == sum(
                1
                for (kind, a, _) in events
                if kind == EV_LINK_STATE and STATE_NAMES[a] == "down"
            )
            assert summary["releases"] == sum(
                1 for (kind, _, _) in events if kind == EV_LINK_RELEASE
            )

    def test_same_seed_identical_event_stream(self):
        _, first, _ = self.run_storm(seed=3)
        _, second, _ = self.run_storm(seed=3)
        assert first.trace_digest() == second.trace_digest()


@pytest.mark.parametrize("seed", range(10))
def test_flap_storm_seed_sweep_clean(seed):
    """>= 10-seed sweep: zero 4TD violations, every flapped link rejoins,
    and the sharded replay stays byte-identical at every seed."""
    spec = builtin_specs(["flap-storm"], quick=True)[0]
    result = run_scenario(dict(spec), seed=seed)
    sharded = run_scenario(
        dict(spec), seed=seed, backend="sharded", shards=2,
        shard_transport="inline",
    )
    assert canon(sharded) == canon(result)
    assert result["violations_total"] == 0
    assert result["all_synchronized"] == 1
    for link in ("n1-n2", "n3-n4"):
        summary = result["linkhealth"]["links"][link]
        assert summary["state"] == "up"
        assert summary["downs"] >= 1
        assert summary["resyncs"] >= 1
        assert summary["releases"] == summary["downs"]


@pytest.mark.parametrize("name", sorted(LINKHEALTH_SCENARIOS))
def test_linkhealth_scenarios_are_clean(name):
    """signal-loss and ber-ramp also recover with zero violations."""
    spec = builtin_specs([name], quick=True)[0]
    result = run_scenario(dict(spec), seed=1)
    assert result["violations_total"] == 0
    assert result["all_synchronized"] == 1
    faulted = result["linkhealth"]["links"]["n0-n1" if name != "flap-storm"
                                            else "n1-n2"]
    assert faulted["state"] == "up"
    assert faulted["downs"] >= 1


# ----------------------------------------------------------------------
# Cross-backend byte-identity (the CI backend-identity job's in-tree twin)
# ----------------------------------------------------------------------
class TestBackendIdentity:
    def run_backends(self, name, tmp_path, seed=1):
        spec = builtin_specs([name], quick=True)[0]
        out = {}
        for backend in ("scalar", "batched", "sharded"):
            base = tmp_path / backend
            kwargs = dict(
                seed=seed,
                trace_dir=str(base / "trace"),
                metrics_dir=str(base / "metrics"),
                flight_dir=str(base / "flight"),
                backend=backend,
            )
            if backend == "sharded":
                kwargs.update(shards=2, shard_transport="inline")
            out[backend] = (run_scenario(dict(spec), **kwargs), base)
        return out

    @pytest.mark.parametrize("name", ["flap-storm", "signal-loss"])
    def test_all_backends_identical(self, name, tmp_path):
        out = self.run_backends(name, tmp_path)
        scalar_result, scalar_base = out["scalar"]
        assert "telemetry" in scalar_result  # digests actually compared
        for backend in ("batched", "sharded"):
            result, base = out[backend]
            assert canon(result) == canon(scalar_result), backend
            assert tree(base) == tree(scalar_base), backend

    def test_ber_ramp_scalar_batched_identical(self, tmp_path):
        """ber-ramp is identical everywhere it runs, and refused elsewhere.

        Its high-BER step makes the *unfaulted* neighbor link n1-n2 dip
        and recover, an emergent supervised incident.  ``BerRamp.pins``
        therefore claims the endpoints' neighbours too: on this 3-node
        chain the auto-resolved sharded run has one partition and equals
        the scalar run, and an explicit 2-shard cut is refused by name
        rather than run with that supervisor dormant (docs/LINKHEALTH.md,
        "Backend integration").
        """
        spec = builtin_specs(["ber-ramp"], quick=True)[0]
        out = {}
        for backend in ("scalar", "batched", "sharded"):
            base = tmp_path / backend
            out[backend] = (
                run_scenario(
                    dict(spec),
                    seed=1,
                    backend=backend,
                    shard_transport="inline",
                    trace_dir=str(base / "trace"),
                    metrics_dir=str(base / "metrics"),
                ),
                base,
            )
        for backend in ("batched", "sharded"):
            assert canon(out[backend][0]) == canon(out["scalar"][0]), backend
            assert tree(out[backend][1]) == tree(out["scalar"][1]), backend
        # The emergent neighbor incident is real in all three.
        summary = out["scalar"][0]["linkhealth"]["links"]["n1-n2"]
        assert summary["downs"] == 1 and summary["state"] == "up"
        with pytest.raises(CampaignError, match="exceeds the 1 cut partitions"):
            run_scenario(dict(spec), seed=1, backend="sharded", shards=2)

    def test_serial_event_order_replayed(self, tmp_path):
        """EV_LINK_* records appear in identical serial order everywhere."""
        spec = builtin_specs(["flap-storm"], quick=True)[0]
        streams = {}
        for backend in ("scalar", "batched", "sharded"):
            telemetry = Telemetry()
            kwargs = dict(seed=1, telemetry=telemetry, backend=backend)
            if backend == "sharded":
                kwargs.update(shards=2, shard_transport="inline")
            run_scenario(dict(spec), **kwargs)
            streams[backend] = [
                record
                for record in telemetry.tracer.records
                if record[1]
                in (EV_LINK_STATE, EV_LINK_RECONNECT, EV_LINK_RESYNC,
                    EV_LINK_RELEASE)
            ]
        assert streams["scalar"]  # the FSM actually traced
        assert streams["batched"] == streams["scalar"]
        assert streams["sharded"] == streams["scalar"]


@pytest.mark.parametrize("name", list(BUILTIN_SCENARIOS))
def test_builtins_supervised_but_idle_identical(name, tmp_path):
    """Nine builtins, faults stripped, supervision on: all backends agree.

    With no faults active every supervisor is watchdog-armed but silent,
    so the sharded backend's dormant-supervisor identity argument (and
    the batched eligibility hook) must not perturb a single byte.
    """
    spec = builtin_specs([name], quick=True)[0]
    spec["faults"] = []
    spec["linkhealth"] = True
    out = {}
    for backend in ("scalar", "batched", "sharded"):
        base = tmp_path / backend
        kwargs = dict(
            seed=0,
            trace_dir=str(base / "trace"),
            metrics_dir=str(base / "metrics"),
            backend=backend,
        )
        if backend == "sharded":
            kwargs.update(shards=2, shard_transport="inline")
        out[backend] = (run_scenario(dict(spec), **kwargs), base)
    scalar_result, scalar_base = out["scalar"]
    assert scalar_result["violations_total"] == 0
    for link, summary in scalar_result["linkhealth"]["links"].items():
        assert summary["downs"] == 0, link
    for backend in ("batched", "sharded"):
        result, base = out[backend]
        assert canon(result) == canon(scalar_result), backend
        assert tree(base) == tree(scalar_base), backend


# ----------------------------------------------------------------------
# The unified link gate (satellite: one API for all link-state writers)
# ----------------------------------------------------------------------
def _link_is_up(network, a, b):
    """True when neither direction of the a-b cable is DOWN."""
    return (
        network.ports[(a, b)].state is not PortState.DOWN
        and network.ports[(b, a)].state is not PortState.DOWN
    )


class TestLinkGate:
    def net(self, sim, streams, hosts=3):
        network = DtpNetwork(sim, chain(hosts), streams)
        network.start()
        sim.run_until(200 * units.US)
        return network

    def test_network_routes_through_gate(self, sim, streams):
        network = self.net(sim, streams)
        assert isinstance(network.gate, LinkGate)
        network.down_link("n0", "n1")
        assert network.gate.holds("n0", "n1") == frozenset({ADMIN_CLAIM})
        assert not _link_is_up(network, "n0", "n1")
        network.up_link("n0", "n1")
        assert network.gate.holds("n0", "n1") == frozenset()
        assert _link_is_up(network, "n0", "n1")

    def test_overlapping_claims_keep_link_down(self, sim, streams):
        network = self.net(sim, streams)
        gate = network.gate
        gate.claim_down("n0", "n1", "fault-a")
        gate.claim_down("n0", "n1", "fault-b")
        gate.release_up("n0", "n1", "fault-a")
        # fault-b still owns the down; the ports must not have been raised.
        assert gate.holds("n0", "n1") == frozenset({"fault-b"})
        assert network.ports[("n0", "n1")].state is PortState.DOWN
        gate.release_up("n0", "n1", "fault-b")
        assert network.ports[("n0", "n1")].state is not PortState.DOWN

    def test_legacy_up_without_down_still_raises(self, sim, streams):
        """NodeCrash restart semantics: up_link with no prior claim."""
        network = self.net(sim, streams)
        network.ports[("n0", "n1")].link_down()
        network.ports[("n1", "n0")].link_down()
        network.up_link("n0", "n1")  # no claim was ever registered
        assert network.ports[("n0", "n1")].state is not PortState.DOWN

    def test_admin_claim_is_shared(self, sim, streams):
        """Two overlapping legacy faults: first heal re-raises the link."""
        network = self.net(sim, streams)
        network.down_link("n0", "n1")
        network.down_link("n0", "n1")  # second fault, same shared claim
        network.up_link("n0", "n1")
        assert _link_is_up(network, "n0", "n1")

    def test_signal_loss_is_directional(self, sim, streams):
        network = self.net(sim, streams)
        gate = network.gate
        gate.signal_loss("n0", "n1")
        assert ("n0", "n1") in gate._dark
        assert ("n1", "n0") not in gate._dark
        # Port state untouched: the dark TX is invisible to the sender.
        assert network.ports[("n0", "n1")].state is not PortState.DOWN
        assert network.ports[("n0", "n1")].tx_allow("beacon", sim.now) is False
        gate.signal_restore("n0", "n1")
        assert ("n0", "n1") not in gate._dark

    def test_signal_restore_preserves_prior_tx_gate(self, sim, streams):
        network = self.net(sim, streams)
        port = network.ports[("n0", "n1")]
        sentinel = lambda mtype, now: True  # noqa: E731
        port.tx_allow = sentinel
        network.gate.signal_loss("n0", "n1")
        network.gate.signal_restore("n0", "n1")
        assert port.tx_allow is sentinel


# ----------------------------------------------------------------------
# Edge quarantine in the invariant checker (rejoin handshake target)
# ----------------------------------------------------------------------
class TestEdgeQuarantine:
    def setup_net(self, sim, streams):
        network = DtpNetwork(sim, chain(3), streams)
        checker = InvariantChecker(network)
        network.start()
        sim.run_until(300 * units.US)
        return network, checker

    def test_quarantined_edge_leaves_sync_subgraph(self, sim, streams):
        network, checker = self.setup_net(sim, streams)
        adjacency = checker._sync_adjacency()
        assert "n1" in adjacency["n0"]
        checker.quarantine_edge("n0", "n1", "linkhealth")
        adjacency = checker._sync_adjacency()
        assert "n1" not in adjacency["n0"]
        assert "n0" not in adjacency["n1"]
        # The rest of the graph is untouched.
        assert "n2" in adjacency["n1"]

    def test_release_restores_the_edge(self, sim, streams):
        network, checker = self.setup_net(sim, streams)
        checker.quarantine_edge("n1", "n0", "linkhealth")  # order-insensitive
        checker.release_edge("n0", "n1", "linkhealth")
        assert "n1" in checker._sync_adjacency()["n0"]

    def test_unknown_node_rejected(self, sim, streams):
        network, checker = self.setup_net(sim, streams)
        with pytest.raises(KeyError):
            checker.quarantine_edge("n0", "zz", "linkhealth")

    def test_quarantine_is_trace_silent(self, sim, streams):
        network, checker = self.setup_net(sim, streams)
        checker.quarantine_edge("n0", "n1", "linkhealth")
        checker.release_edge("n0", "n1", "linkhealth")
        # No telemetry attached — and by contract the edge quarantine
        # never records events even when a tracer is present (the
        # supervisor's EV_LINK_* stream already covers the transition).
        assert checker._tracer is None


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_true_gives_defaults(self):
        config = linkhealth_config_from_value(True)
        assert config == LinkHealthConfig()

    def test_dict_overrides(self):
        config = linkhealth_config_from_value({"watchdog_beacons": 8})
        assert config.watchdog_beacons == 8
        assert config.resync_clean_intervals == (
            LinkHealthConfig().resync_clean_intervals
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            linkhealth_config_from_value({"no_such_knob": 1})
