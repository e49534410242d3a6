"""The batched backend's one contract: byte-identical to the scalar oracle.

Every test here runs the same seeded scenario on both backends and asserts
the *canonical metrics digests* are equal — not "close", equal — and, with
tracing on, that the trace ring holds the same records in the same order
(so every artifact cut from it is the same bytes).  The hypothesis sweep
draws topology, seed, link-up stagger, and an active fault model, so the
promotion, demotion (link-down and fault-window), and merge-ordering
machinery all get exercised, not just the steady state.
"""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.oscillator import ConstantSkew, Oscillator, RandomWalkSkew
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.ethernet.frames import MTU_FRAME, beacon_interval_ticks_for
from repro.experiments.workloads import saturated_traffic
from repro.fastpath import FastpathCoordinator, direction_ineligible_reason
from repro.faultlab.campaign import (
    RunOptions,
    build_fault,
    build_topology,
    metrics_digest,
    prepare,
    run_scenario,
)
from repro.faultlab.faults import BerBurst, FaultContext
from repro.network.topology import chain, clos, star
from repro.phy.specs import PHY_1G, PHY_10G, PHY_40G, PHY_100G
from repro.shard import build_plan, run_sharded_scenario
from repro.shard.coordinator import run_sharded
from repro.shard.runner import default_margin_fs
from repro.shard.transport import InlineTransport
from repro.sim import units
from repro.sim.engine import SimulationError, Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry import Telemetry
from repro.telemetry.events import EV_PEER_FAULT
from tests.equivalence_models import PartialLoadTraffic, SinusoidalSkew


def _digests(spec, seed, traced=False, observers=None):
    """Result digests on (scalar, batched); a traced run's result carries
    its ``trace_digest`` / ``metrics_digest`` / ``trace_recorded``, so the
    one comparison covers the trace bytes too."""
    return tuple(
        metrics_digest(
            run_scenario(
                dict(spec), seed=seed, backend=backend,
                telemetry=Telemetry() if traced else None, observers=observers,
            )
        )
        for backend in ("scalar", "batched")
    )


# ----------------------------------------------------------------------
# Property sweep: random topology x seed x stagger x fault model
# ----------------------------------------------------------------------
#: Both sweeps draw 12 examples in tier-1.  Under CI's ``ci`` profile
#: (``--hypothesis-profile=ci``) they inherit its example budget instead.
_SWEEP = settings(
    max_examples=(
        settings.default.max_examples
        if settings.default is settings.get_profile("ci") else 12
    ),
    deadline=None, derandomize=True, database=None,
)


_TOPOLOGIES = st.sampled_from(
    [
        {"kind": "chain", "hosts": 2},
        {"kind": "chain", "hosts": 4},
        {"kind": "star", "hosts": 3},
        {"kind": "two-level-tree", "branches": 2, "leaves": 2},
        {"kind": "clos", "spines": 2, "leaves": 2},
    ]
)

# Each fault template targets nodes every sampled topology has (topology
# builders all start host numbering at their own prefixes, so faults are
# keyed per kind below).
_FAULT_DICTS = [
    {"kind": "link-flap", "down_every_fs": 200 * units.US,
     "down_for_fs": 40 * units.US, "start_fs": 250 * units.US, "flaps": 2},
    {"kind": "partition", "down_at_fs": 250 * units.US,
     "up_at_fs": 400 * units.US},
    {"kind": "two-faced", "lie_ticks": 6, "at_fs": 200 * units.US},
    {"kind": "oscillator-glitch", "at_fs": 200 * units.US,
     "duration_fs": 300 * units.US, "glitch_ppm": 40.0},
]
_FAULTS = st.sampled_from([None] + _FAULT_DICTS)


def _first_edge_nodes(topology_spec):
    edge = build_topology(topology_spec).edges[0]
    return edge.a, edge.b


def _placed(fault, a, b, shift_fs=0):
    """``fault`` aimed at the a-b edge, its schedule moved ``shift_fs`` later."""
    fault = dict(fault)
    if fault["kind"] in ("link-flap", "partition", "ber-burst"):
        fault.update(a=a, b=b)
    elif fault["kind"] == "two-faced":
        fault.update(node=a, victim=b)
    elif fault["kind"] == "beacon-suppression":
        fault.update(node=a, peer=b)
    else:
        fault.update(node=b)
    for key in ("start_fs", "down_at_fs", "up_at_fs", "at_fs"):
        if key in fault:
            fault[key] += shift_fs
    return fault


@_SWEEP
@given(
    topology=_TOPOLOGIES,
    fault=_FAULTS,
    seed=st.integers(0, 2**16),
    stagger_us=st.sampled_from([0, 3, 17]),
)
def test_batched_backend_is_bit_identical(topology, fault, seed, stagger_us):
    a, b = _first_edge_nodes(topology)
    faults = [_placed(fault, a, b)] if fault is not None else []
    spec = {
        "name": "prop",
        "topology": topology,
        "duration_fs": 600 * units.US,
        "faults": faults,
    }
    # Stagger exercises promotion at different per-port phases: an observer
    # samples the checker on its own grid, shifted by the stagger, between
    # the campaign sampler's instants.  Each run keeps its own readings, and
    # every run's must match the scalar untraced run's.
    sample_interval_fs = (64 + stagger_us) * units.US
    readings = []

    def staggered_sampler(sim, checker, **_):
        reads = []
        readings.append(reads)

        def sample():
            reads.append(checker.sample(True))
            sim.schedule(sample_interval_fs, sample)

        sim.schedule_at(sim.now, sample)

    for traced in (False, True):
        ds, db = _digests(spec, seed, traced, [staggered_sampler])
        assert ds == db, f"traced={traced}"
    # (scalar, batched) untraced, then (scalar, batched) traced.
    assert len(readings) == 4 and readings[0]
    for run, reads in enumerate(readings[1:], 1):
        assert reads == readings[0], f"run {run}"


# ----------------------------------------------------------------------
# Hand-armed faults: no spec, no campaign — ``arm`` is the only declaration
# ----------------------------------------------------------------------
#: The sweep's faults plus the two others that patch a port behind its API.
_HAND_FAULTS = _FAULT_DICTS + [
    {"kind": "ber-burst", "start_fs": 250 * units.US,
     "duration_fs": 200 * units.US, "ber": 1e-3},
    {"kind": "beacon-suppression", "start_fs": 250 * units.US,
     "duration_fs": 200 * units.US},
]


def _patched(fault_spec, a, b):
    """The send directions ``fault_spec`` placed on a-b patches (``ber``,
    ``tx_allow``, ``_tx_counter``), as ``(node, peer)`` port keys."""
    return {
        "ber-burst": [(a, b), (b, a)],
        "beacon-suppression": [(a, b)],
        "two-faced": [(a, b)],
    }.get(fault_spec["kind"], [])


def _direction_log(coordinator, sim):
    """``[(time, sender port key, "promote" | "demote"), ...]`` of every
    direction ``coordinator`` takes or hands back from now on."""
    log = []
    promote, demote = coordinator.on_beacon_timeout, coordinator.demote

    def on_beacon_timeout(port, tick):
        promoted = promote(port, tick)
        if promoted:
            log.append((sim.now, tuple(port.name.split("->")), "promote"))
        return promoted

    def logged_demote(ds):
        log.append((sim.now, tuple(ds.sender.name.split("->")), "demote"))
        demote(ds)

    coordinator.on_beacon_timeout = on_beacon_timeout
    coordinator.demote = logged_demote
    return log


#: Fig. 6a's regime: the beacon interval at the MTU frame slot period.
_MTU_INTERVAL = beacon_interval_ticks_for(MTU_FRAME)


def _loaded(net, streams, traffic):
    """Load every direction of ``net`` (from tick 20,000) with ``traffic``:
    ``"idle"``, ``"saturated"`` MTU frames or a 70 % ``"partial"`` load."""
    if traffic == "saturated":
        net.install_traffic(saturated_traffic("mtu"))
    elif traffic == "partial":
        net.install_traffic(
            lambda index, direction: PartialLoadTraffic(
                MTU_FRAME, 0.7, streams.stream(f"traffic/{index}/{direction}")
            )
        )


def _hand_armed(
    backend, topology_spec, fault_spec, edge_index, arm_at_fs, seed, traffic="idle"
):
    """One traced run with ``fault_spec`` armed by hand at ``arm_at_fs``
    (0 = before ``start()``) on a network that was told nothing about it.
    A loaded run (``_loaded``) beacons once per MTU slot with a BEACON_MSB
    every 20 beacons: each MSB takes a slot from beacons for good, so the
    batched run's captures queue behind each other.  Returns the run's
    identity, the fault, the network, its coordinator (None on scalar) and
    the coordinator's promote / demote log."""
    topology = build_topology(topology_spec)
    edge = topology.edges[edge_index % len(topology.edges)]
    # Armed late, the schedule moves with it: first effect >= 600 us, well
    # after every direction promoted, so a patch has something to demote.
    shift_fs = 400 * units.US if arm_at_fs else 0
    fault = build_fault(_placed(fault_spec, edge.a, edge.b, shift_fs))
    telemetry, sim, streams = Telemetry(), Simulator(), RandomStreams(root_seed=seed)
    config = None
    if traffic != "idle":
        config = DtpPortConfig(beacon_interval_ticks=_MTU_INTERVAL, msb_interval_beacons=20)
    net = DtpNetwork(
        sim, topology, streams, config=config, telemetry=telemetry, backend=backend
    )
    _loaded(net, streams, traffic)
    coordinator = net.fastpath
    log = _direction_log(coordinator, sim) if coordinator is not None else []
    context = FaultContext(network=net, streams=streams)
    if not arm_at_fs:
        fault.arm(context)
    net.start()
    if arm_at_fs:
        sim.run_until(arm_at_fs)
        fault.arm(context)
    sim.run_until(1 * units.MS)
    # trace_digest: sha256 over the exact bytes write_trace_jsonl would write.
    identity = (
        telemetry.trace_digest(), list(telemetry.tracer.records),
        telemetry.tracer.recorded, sim._seq, fault.summary(),
    )
    return identity, fault, net, coordinator, log


@_SWEEP
@given(
    topology=_TOPOLOGIES,
    fault=st.sampled_from(_HAND_FAULTS),
    edge_index=st.integers(0, 7),
    arm_at_us=st.sampled_from([0, 500]),
    seed=st.integers(0, 2**16),
    traffic=st.sampled_from(["idle", "saturated", "partial"]),
)
def test_hand_armed_fault_is_bit_identical(
    topology, fault, edge_index, arm_at_us, seed, traffic
):
    run = (topology, fault, edge_index, arm_at_us * units.US, seed, traffic)
    scalar, *_ = _hand_armed("scalar", *run)
    batched, _, net, coordinator, log = _hand_armed(None, *run)
    assert net.backend == "batched" and coordinator is not None
    assert batched == scalar
    assert scalar[2] > 1000
    # Arming takes no port off the coordinator: a patch hands back only
    # the direction it patches, and only for its window.
    assert net.fastpath is coordinator
    assert all(port._fastpath is coordinator for port in net.ports.values())
    edge = net.topology.edges[edge_index % len(net.topology.edges)]
    demoted = {key for _t, key, event in log if event == "demote"}
    assert set(_patched(fault, edge.a, edge.b)) <= demoted


@pytest.mark.parametrize("arm_at_us", [0, 500])
@pytest.mark.parametrize("fault", _HAND_FAULTS, ids=lambda f: f["kind"])
def test_every_hand_armed_fault_on_an_inner_edge(fault, arm_at_us):
    # The sweep draws; this walks all six kinds, on chain(4)'s middle edge,
    # before start() and mid-run.
    run = ({"kind": "chain", "hosts": 4}, fault, 1, arm_at_us * units.US, 7)
    scalar, *_ = _hand_armed("scalar", *run)
    batched, _, net, coordinator, log = _hand_armed(None, *run)
    # Trace bytes, records, recorded count and sim._seq: the scalar run's.
    assert batched == scalar
    assert net.fastpath is coordinator
    # The four outer directions promote once and stay promoted all run.
    outer = [("n0", "n1"), ("n1", "n0"), ("n2", "n3"), ("n3", "n2")]
    for key in outer:
        assert [event for _t, k, event in log if k == key] == ["promote"], key
        assert net.ports[key] in coordinator._dirs
    # A patched direction runs scalar exactly while patched: handed back at
    # the patch, re-promoted at its first beacon timeout after the restore
    # (the two-faced lie is never taken back).
    shift_fs = 400 * units.US if arm_at_us else 0
    interval_fs = net.config.beacon_interval_ticks * net.spec.period_fs
    for key in _patched(fault, "n1", "n2"):
        events = [(t, event) for t, k, event in log if k == key]
        assert events[0][1] == "promote"
        if fault["kind"] == "two-faced":
            assert events[1:] == [(fault["at_fs"] + shift_fs, "demote")]
            continue
        start_fs = fault["start_fs"] + shift_fs
        stop_fs = start_fs + fault["duration_fs"]
        (demoted_at, demote), (promoted_at, promote) = events[1:]
        assert (demoted_at, demote, promote) == (start_fs, "demote", "promote")
        assert stop_fs < promoted_at <= stop_fs + 2 * interval_fs
        assert net.ports[key] in coordinator._dirs


@pytest.mark.parametrize(
    "name, promotions, demotions",
    [("ber-burst", 6, 2), ("beacon-suppression", 3, 1), ("two-faced", 4, 1)],
)
def test_builtins_that_patch_a_port_still_batch(name, promotions, demotions):
    # These three used to pin every node of the fault to the scalar path at
    # arm, so their networks built no coordinator at all.
    from repro.faultlab.scenarios import builtin_specs

    (spec,) = builtin_specs([name], quick=True)
    result, live = _run_live(spec, 1)
    fastpath = live["network"].fastpath
    assert fastpath is not None
    assert (fastpath.promotions, fastpath.demotions) == (promotions, demotions)
    assert result == run_scenario(dict(spec), seed=1, backend="scalar")


def _six_chain(fault):
    """``fault`` on n1-n2 of chain(6): two shards cut it n0-n2 | n3-n5."""
    return {
        "name": "sharded-arm",
        "topology": {"kind": "chain", "hosts": 6},
        "duration_fs": 1 * units.MS,
        "faults": [_placed(fault, "n1", "n2")],
    }


def _on_two_inline_shards(spec, seed, telemetry):
    """``(result, per-shard coordinators)`` of a 2-shard inline run."""
    prepared = prepare(spec)
    plan = build_plan(prepared.topology, prepared.faults, 2, default_margin_fs())
    transport = InlineTransport()
    result = run_sharded(
        prepared, seed, RunOptions.of(backend="sharded"), plan, transport, telemetry
    )
    return result, [worker.engine.fastpath for worker in transport._workers]


@pytest.mark.parametrize("fault", _HAND_FAULTS, ids=lambda f: f["kind"])
def test_every_fault_keeps_its_identity_on_two_batching_shards(fault):
    # The sharded arm of the sweep: a shard builds and arms its own faults,
    # so the same six kinds come in through the spec.  Result bytes — the
    # trace and metrics digests are in them — equal the scalar oracle's
    # while every owned-owned direction batches outside a patch.
    spec = _six_chain(fault)
    stats = {}
    scalar = run_scenario(dict(spec), seed=7, backend="scalar", telemetry=Telemetry())
    sharded = run_sharded_scenario(
        dict(spec), seed=7, shards=2, transport="inline", telemetry=Telemetry(),
        stats_out=stats,
    )
    assert sharded == scalar
    assert scalar["telemetry"]["trace_recorded"] > 1000
    assert stats["virtual_events"] > stats["events"] // 4


def test_fault_demotes_on_its_pinned_shard_while_the_other_keeps_batching():
    # partition (acts via down_link) on n1-n2; the cut is n0-n2 | n3-n5.
    _, (pinned, other) = _on_two_inline_shards(
        _six_chain(_FAULT_DICTS[1]), 7, Telemetry()
    )
    # n1-n2 goes down promoted: both directions demote, and re-promote healed.
    assert pinned.demotions == 2 and pinned.promotions == 4 + 2
    assert other.demotions == 0 and other.promotions == 4
    assert other.virtual_events > 10_000


def test_hand_armed_ber_burst_injects_what_scalar_injects():
    # At the parent a batched network built without the taint kwarg let the
    # promoted direction run past the swapped-in injector: 0 errors, not 24.
    def run(backend):
        sim, streams = Simulator(), RandomStreams(root_seed=1)
        net = DtpNetwork(sim, chain(2), streams, backend=backend)
        burst = BerBurst(
            "n0", "n1", start_fs=300 * units.US, duration_fs=300 * units.US, ber=1e-3
        )
        burst.arm(FaultContext(network=net, streams=streams))
        net.start()
        sim.run_until(1 * units.MS)
        return burst.summary()["errors_injected"], sim._seq

    assert run(None) == run("scalar") == (24, 6260)


def test_all_builtin_scenarios_bit_identical_quick():
    from repro.faultlab.scenarios import builtin_specs

    for spec in builtin_specs(quick=True):
        ds, db = _digests(spec, seed=0)
        assert ds == db, f"{spec['name']}: backends diverged"


def _tree(root):
    """{relative path: bytes} for every file under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run_live(spec, seed, **options):
    """``run_scenario`` plus the live objects (sim, network, ...) an
    observer is handed — the only way to see the engine and coordinator."""
    live = {}
    result = run_scenario(
        dict(spec), seed=seed, observers=[lambda **run: live.update(run)], **options
    )
    return result, live


def test_all_builtin_scenarios_write_the_same_artifact_bytes(tmp_path):
    from repro.faultlab.scenarios import builtin_specs

    specs = builtin_specs(quick=True)
    assert len(specs) == 9
    trees = {}
    for backend in ("scalar", "batched"):
        root = tmp_path / backend
        dirs = {
            kind: str(root / kind)
            for kind in ("trace_dir", "metrics_dir", "flight_dir", "snapshot_dir")
        }
        results = {
            spec["name"]: run_scenario(dict(spec), seed=0, backend=backend, **dirs)
            for spec in specs
        }
        trees[backend] = (results, _tree(root))
    (scalar_results, scalar_tree), (batched_results, batched_tree) = (
        trees["scalar"], trees["batched"]
    )
    for name, result in scalar_results.items():
        assert result["telemetry"]["trace_recorded"] > 0
        assert batched_results[name] == result, name
    assert sorted(batched_tree) == sorted(scalar_tree)
    for suffix in (".trace.jsonl", ".flight.jsonl", ".snapshots.jsonl", ".prom"):
        assert any(path.endswith(suffix) for path in scalar_tree), suffix
    for path, data in scalar_tree.items():
        assert batched_tree[path] == data, path


# ----------------------------------------------------------------------
# Eligibility and demotion
# ----------------------------------------------------------------------
def _trace_file_bytes(telemetry, path):
    from repro.telemetry import write_trace_jsonl

    write_trace_jsonl(str(path), telemetry.tracer)
    return path.read_bytes()


def _batched_chain(seed=0, hosts=2, telemetry=None, pinned=None):
    """A hand-built chain on the default backend: no engine class to pick,
    no ``backend=``; ``pinned`` nodes are pinned scalar before link-up."""
    sim = Simulator()
    streams = RandomStreams(root_seed=seed)
    net = DtpNetwork(sim, chain(hosts), streams, telemetry=telemetry)
    assert net.backend == "batched"
    if pinned is not None:
        net.pin_scalar(pinned)
    net.start()
    return sim, net


def _traced_chain(backend, hosts=4, seed=5, drive=None):
    """One traced chain run; returns (telemetry, network, sim)."""
    telemetry = Telemetry()
    sim = Simulator()
    net = DtpNetwork(
        sim, chain(hosts), RandomStreams(root_seed=seed),
        skews={f"n{i}": ConstantSkew((-1.0) ** i * 40.0) for i in range(hosts)},
        telemetry=telemetry, backend=backend,
    )
    net.start()
    (drive or (lambda sim, net: sim.run_until(2 * units.MS)))(sim, net)
    return telemetry, net, sim


def test_traced_chain_promotes_everything_and_matches_scalar():
    # The coordinator emits the scalar port path's records itself, so
    # tracing no longer keeps any direction scalar — and the ring holds
    # the same tuples in the same order.
    scalar, _, scalar_sim = _traced_chain("scalar")
    batched, net, batched_sim = _traced_chain("batched")
    assert net.all_synchronized()
    assert net.fastpath.promotions == 2 * 3  # every direction of chain(4)
    assert net.fastpath.demotions == 0
    assert net.fastpath.virtual_events > 0
    for port in net.ports.values():
        assert direction_ineligible_reason(port) is None
    assert batched.tracer.recorded == scalar.tracer.recorded > 1000
    assert list(batched.tracer.records) == list(scalar.tracer.records)
    assert batched.tracer.subjects == scalar.tracer.subjects
    assert batched.trace_digest() == scalar.trace_digest()
    assert batched.metrics_digest() == scalar.metrics_digest()
    assert batched_sim._seq == scalar_sim._seq


def test_traced_link_down_demotion_keeps_record_order():
    # Demotion hands pending virtual events to the heap under the seqs
    # they already hold: same-instant ties against the directions that
    # stay batched keep their scalar order, and the counter stays equal.
    def drive(sim, net):
        sim.run_until(1 * units.MS)
        net.down_link("n1", "n2")
        sim.run_until(1200 * units.US)
        net.up_link("n1", "n2")
        sim.run_until(3 * units.MS)

    scalar, _, scalar_sim = _traced_chain("scalar", drive=drive)
    batched, net, batched_sim = _traced_chain("batched", drive=drive)
    assert net.fastpath.demotions == 2
    assert net.fastpath.promotions == 6 + 2
    assert list(batched.tracer.records) == list(scalar.tracer.records)
    assert batched_sim._seq == scalar_sim._seq


def test_traced_fault_window_trip_lands_at_the_same_record():
    # No fault model: opposed skews make n1 jump on most windows, and a
    # one-jump budget trips Section 3.2 on directions that are batched
    # when it happens (a rejected catch-up trips the reverse ones).
    spec = {
        "name": "trip",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": 2 * units.MS,
        "skew_ppm": {"n0": 80.0, "n1": -80.0, "n2": 0.0},
        "config": {"fault_window_beacons": 100, "max_jumps_per_window": 1},
    }
    runs = {}
    for backend in ("scalar", "batched"):
        telemetry = Telemetry()
        result, live = _run_live(spec, 3, backend=backend, telemetry=telemetry)
        records = list(telemetry.tracer.records)
        trips = [i for i, r in enumerate(records) if r[1] == EV_PEER_FAULT]
        runs[backend] = (trips, records, metrics_digest(result), live["sim"]._seq)
        if backend == "batched":
            fastpath = live["network"].fastpath
            assert fastpath.promotions == 4
            assert fastpath.demotions == len(trips) == 4
    assert runs["batched"] == runs["scalar"]


def test_fault_window_trips_inside_batching_shards_match_scalar():
    # The trip is a call-out from a *virtual* APPLY (``_roll_fault_window``):
    # its EV_PEER_FAULT record must carry that virtual event's key to merge
    # where the scalar run has it.  The cut link n2-n3 stays calm.
    spec = {
        "name": "shard-trip",
        "topology": {"kind": "chain", "hosts": 6},
        "duration_fs": 2 * units.MS,
        "skew_ppm": {"n0": 80.0, "n1": -80.0, "n2": 0.5, "n3": 1.0,
                     "n4": 75.0, "n5": -85.0},
        "config": {"fault_window_beacons": 100, "max_jumps_per_window": 1},
    }
    scalar_telemetry, telemetry = Telemetry(), Telemetry()
    scalar = run_scenario(dict(spec), seed=3, backend="scalar", telemetry=scalar_telemetry)
    sharded, coordinators = _on_two_inline_shards(spec, 3, telemetry)
    assert sharded == scalar
    records = list(telemetry.tracer.records)
    assert records == list(scalar_telemetry.tracer.records)
    trips = sum(1 for record in records if record[1] == EV_PEER_FAULT)
    assert trips == 10 and min(c.demotions for c in coordinators) >= 4


def test_dispatch_profile_refuses_every_direction():
    # sim_dispatch_total is in the metrics digest and virtual events are
    # not dispatches: a profiled engine batches nothing, by name.
    spec = {
        "name": "profiled",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": 500 * units.US,
    }
    digests = {}
    for backend in ("scalar", "batched"):
        result, live = _run_live(spec, 2, backend=backend, profile_dispatch=True)
        digests[backend] = result["telemetry"]["metrics_digest"]
        net = live["network"]
        assert net.fastpath is None  # zero promotions: nothing to promote into
        assert {
            direction_ineligible_reason(port)
            for port in net.ports.values()
        } == {"engine dispatch profile attached"}
    assert digests["batched"] == digests["scalar"]


def test_factory_built_plain_engine_runs_the_scalar_port_path():
    # The default backend is batched, but a caller's own Simulator carrying
    # a profile hook (as the repo benchmark's layer pass builds one) is a
    # static refusal: every event stays a real dispatch.  A bare factory
    # engine takes the coordinator path, to the same digest.
    class Counts:
        n = 0

        def count(self, fn):
            self.n += 1

    def profiled(counts):
        def factory():
            sim = Simulator()
            sim.profile = counts
            return sim

        return factory

    spec = {
        "name": "hooked",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": 500 * units.US,
    }
    assert RunOptions().backend == "batched"
    default, scalar = Counts(), Counts()
    hooked = run_scenario(dict(spec), seed=2, sim_factory=profiled(default))
    oracle = run_scenario(
        dict(spec), seed=2, sim_factory=profiled(scalar), backend="scalar"
    )
    bare = run_scenario(dict(spec), seed=2, sim_factory=lambda: Simulator())
    assert metrics_digest(hooked) == metrics_digest(oracle) == metrics_digest(bare)
    assert default.n == scalar.n > 0  # every event was a real dispatch


def test_untraced_chain_promotes_everything():
    sim, net = _batched_chain()
    sim.run_until(2 * units.MS)
    assert net.all_synchronized()
    assert net.fastpath.promotions == 2  # one per direction
    assert net.fastpath.demotions == 0
    assert net.fastpath.virtual_events > 0


def test_pin_scalar_keeps_ghost_links_scalar():
    sim, net = _batched_chain(hosts=3, pinned=frozenset({"n2"}))
    net.pin_scalar({"n2"})  # pinning twice is a no-op
    sim.run_until(2 * units.MS)
    # n0<->n1 promotes (2 directions); everything touching n2 stays scalar.
    assert net.fastpath.promotions == 2 and net.fastpath.demotions == 0
    assert direction_ineligible_reason(net.ports[("n0", "n1")]) is None
    # The pinned ports (the peer-side one included) carry no hook, so they
    # never ask the coordinator: that, not a reason string, keeps them scalar.
    hooked = {port.name for port in net.ports.values() if port._fastpath is not None}
    assert hooked == {"n0->n1", "n1->n0"}


def test_network_where_nothing_can_promote_builds_no_coordinator():
    sim, net = _batched_chain(hosts=3, pinned=frozenset({"n0", "n1", "n2"}))
    assert net.fastpath is None and sim.fastpath is None
    assert all(port._fastpath is None for port in net.ports.values())
    sim.run_until(2 * units.MS)  # the plain Simulator loops
    assert net.all_synchronized()
    # A partial pin that still covers every link: same outcome.
    _, net = _batched_chain(hosts=3, pinned=frozenset({"n1"}))
    assert net.fastpath is None
    # Parity is refused at build: there was never a coordinator to detach.
    sim = Simulator()
    net = DtpNetwork(
        sim, chain(2), RandomStreams(root_seed=0), config=DtpPortConfig(parity=True)
    )
    assert net.backend == "batched" and net.fastpath is None and sim.fastpath is None
    assert {direction_ineligible_reason(port) for port in net.ports.values()} == {
        "parity beacons enabled"
    }


def test_pinning_the_last_hooked_port_mid_run_detaches_cleanly(tmp_path):
    # Everything is promoted when the pins land.  The first leaves n2<->n3
    # batched; the second takes the last hooked ports, so the coordinator is
    # detached with every pending virtual event back on the heap under its
    # own (time, seq) — the bytes and the counter stay the scalar run's.
    def drive(sim, net):
        sim.run_until(1 * units.MS)
        net.pin_scalar({"n0", "n1"})
        sim.run_until(1500 * units.US)
        net.pin_scalar({"n3"})
        sim.run_until(2 * units.MS)

    scalar, _, scalar_sim = _traced_chain("scalar", drive=drive)
    coordinator = []

    def batched_drive(sim, net):
        coordinator.append(net.fastpath)
        drive(sim, net)

    batched, net, batched_sim = _traced_chain("batched", drive=batched_drive)
    (fastpath,) = coordinator
    assert fastpath.promotions == 6 and fastpath.demotions == 6
    assert net.fastpath is None and batched_sim.fastpath is None
    assert all(port._fastpath is None for port in net.ports.values())
    assert not fastpath._dirs
    assert not fastpath._heap  # every pending event went back to the engine
    assert _trace_file_bytes(batched, tmp_path / "b") == _trace_file_bytes(
        scalar, tmp_path / "s"
    )
    assert batched_sim._seq == scalar_sim._seq
    batched_sim.step()  # detached: the plain engine again


def test_link_down_demotes_and_relearns():
    sim, net = _batched_chain(hosts=3)
    sim.run_until(2 * units.MS)
    assert net.fastpath.promotions == 4
    net.down_link("n0", "n1")
    assert net.fastpath.demotions == 2
    net.up_link("n0", "n1")
    sim.run_until(4 * units.MS)
    # The healed link re-promotes after INIT/JOIN; n1<->n2 never demoted.
    assert net.fastpath.promotions == 6
    assert net.all_synchronized()


def _state(sim, net):
    """Every per-port counter the stats track, the clocks, and the engine
    counter: what a digest could miss."""
    state = {"seq": sim._seq, "now": sim._now}
    for key, port in sorted(net.ports.items()):
        state[key] = (
            port.lc.offset, port.lc.adjustments, port.d,
            port._last_tx_slot, port._beacons_since_msb, port.remote_msb,
            {k: c.value for k, c in port.stats._sent.items()},
            {k: c.value for k, c in port.stats._received.items()},
            port.stats.jumps, port.stats.rejected_out_of_range,
            port.stats.jumps_in_window, port.stats.rejects_in_window,
            port.fifo.crossings,
        )
    for name, device in sorted(net.devices.items()):
        state[name] = (device.gc.offset, device.gc.adjustments)
    return state


def test_scenario_state_identical_not_just_digest():
    def run(backend):
        sim = Simulator()
        streams = RandomStreams(root_seed=9)
        net = DtpNetwork(
            sim, chain(4), streams,
            skews={f"n{i}": ConstantSkew((-1.0) ** i * 30.0) for i in range(4)},
            backend=backend,
        )
        net.start()
        sim.run_until(3 * units.MS)
        return _state(sim, net)

    assert run("scalar") == run("batched")


#: Three beacon intervals per oscillator segment, off the tick grid: the
#: sweep's 600 us runs never leave the default 1 ms first segment, so every
#: cached-segment miss in the coordinator goes untested there.
_SHORT_SEGMENT_FS = 3 * 200 * units.TICK_10G_FS + 12_345


def _drifting_skews(nodes):
    """A period change at every segment boundary: alternating sinusoids
    and random walks with swings of tens of ppm per few hundred us."""
    skews = {}
    for i, name in enumerate(sorted(nodes)):
        if i % 2:
            skews[name] = RandomWalkSkew(
                mean_ppm=-20.0, step_ppm=4.0, step_interval_fs=30 * units.US,
                max_excursion_ppm=60.0, seed=i,
            )
        else:
            skews[name] = SinusoidalSkew(
                mean_ppm=25.0 - 10 * i, amplitude_ppm=60.0,
                period_fs=(500 + 70 * i) * units.US, phase=i,
            )
    return skews


@pytest.mark.parametrize(
    "topology, device_specs",
    [
        (chain(4), None),
        (star(4), None),
        (star(4), {"sw0": PHY_100G, "h0": PHY_10G, "h1": PHY_40G, "h2": PHY_1G}),
    ],
    ids=["chain4", "star4", "star4-mixed-speeds"],
)
def test_segment_boundaries_keep_scalar_identity(topology, device_specs):
    # Stages that fire on a carried tick index rely on
    # ticks_at(time_of_tick(n)) == n at every boundary, where the period
    # (and a cached segment) changes under them.
    def run(backend):
        telemetry, sim = Telemetry(), Simulator()
        net = DtpNetwork(
            sim, topology, RandomStreams(root_seed=13),
            skews=_drifting_skews(topology.nodes),
            oscillator_update_interval_fs=_SHORT_SEGMENT_FS,
            device_specs=device_specs, telemetry=telemetry, backend=backend,
        )
        net.start()
        sim.run_until(1500 * units.US)
        return (telemetry.trace_digest(), telemetry.tracer.recorded, _state(sim, net)), net

    scalar, _ = run("scalar")
    batched, net = run("batched")
    assert batched == scalar
    assert net.all_synchronized()
    assert net.fastpath.promotions == 2 * len(topology.edges)
    # The only demotions are fault-window trips (the mixed arm rejects
    # enough beacons for two).
    faulty = sum(port.peer_faulty for port in net.ports.values())
    assert net.fastpath.demotions == faulty == (2 if device_specs else 0)
    assert min(len(device.oscillator._segments) for device in net.devices.values()) > 300


def test_batched_stages_never_map_a_time_back_to_a_tick(monkeypatch):
    # PLAN, CAPTURE and APPLY carry the tick they fire on, and promotion
    # takes the one its scalar beacon timeout carries.
    callers = Counter()
    ticks_at = Oscillator.ticks_at

    def spy(osc, t_fs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return ticks_at(osc, t_fs)

    monkeypatch.setattr(Oscillator, "ticks_at", spy)
    sim, net = _batched_chain(hosts=8)
    sim.run_until(3 * units.MS)
    fastpath = net.fastpath
    assert fastpath.promotions == 14 and fastpath.virtual_events > 30_000
    assert callers["run_merged"] == 0
    assert callers["on_beacon_timeout"] == 0


def _backlogged(topology, backend, telemetry=None):
    """Fig. 6a's regime on ``topology``: MTU-saturated links beaconing once
    per slot, a BEACON_MSB every 50 beacons.  Every LOG (LOGs share the
    slot arbiter) and every MSB takes a slot from beacons for good, so a
    batched direction's captures queue in its ``txq``."""
    sim, streams = Simulator(), RandomStreams(root_seed=17)
    net = DtpNetwork(
        sim, topology, streams,
        config=DtpPortConfig(beacon_interval_ticks=_MTU_INTERVAL, msb_interval_beacons=50),
        telemetry=telemetry, backend=backend,
    )
    _loaded(net, streams, "saturated")
    net.start()
    return sim, net


def _queued(net, a, b):
    """Captures queued behind the heap on the a->b direction (batched)."""
    ds = net.fastpath._dirs[net.ports[(a, b)]]
    return len(ds.txq or ())


@pytest.mark.parametrize("topology", [chain(4), star(4)], ids=["chain4", "star4"])
def test_queued_captures_keep_scalar_identity(topology):
    # LOGs every 20 us on every port from 200 us: the backlog grows by one
    # slot per LOG.  One link goes down and one direction is handed back
    # while their captures are queued; both promote again.  The healed
    # link's INIT_ACKs wait for slots, so its OWD is measured long
    # (EXPERIMENTS.md deviation 7): rejected beacons trip fault windows
    # across the fabric, adding demotions from virtual APPLYs with
    # captures queued.
    down, handed_back = topology.edges[1], topology.edges[2]

    def run(backend):
        telemetry = Telemetry()
        sim, net = _backlogged(topology, backend, telemetry)
        fastpath = net.fastpath
        log = _direction_log(fastpath, sim) if fastpath is not None else []
        deepest = 0
        for step in range(1, 151):
            if fastpath is not None and step in (80, 100):
                assert _queued(net, down.a, down.b) and _queued(net, down.b, down.a)
                assert _queued(net, handed_back.a, handed_back.b)
            if step == 80:
                net.down_link(down.a, down.b)
            elif step == 90:
                net.up_link(down.a, down.b)
            elif step == 100:
                net.ports[(handed_back.a, handed_back.b)].leave_fastpath()
            sim.run_until(step * 10 * units.US)
            if step >= 20 and step % 2 == 0:
                for port in net.ports.values():
                    port.send_log()
            if fastpath is not None:
                # Each direction's heap holds its PLAN, its oldest pending
                # capture and what is in flight; +1 for a promotion PLAN.
                assert len(fastpath._heap) <= 4 * len(fastpath._dirs) + 1
                deepest = max([deepest] + [len(ds.txq or ()) for ds in fastpath._dirs.values()])
        state = (telemetry.trace_digest(), telemetry.tracer.recorded, _state(sim, net))
        return state, net, deepest, log

    scalar, *_ = run("scalar")
    batched, net, deepest, log = run("batched")
    assert batched == scalar
    assert deepest >= 5
    for key, at_fs in [
        ((down.a, down.b), 790 * units.US),
        ((down.b, down.a), 790 * units.US),
        ((handed_back.a, handed_back.b), 990 * units.US),
    ]:
        (_, first), (demoted_at, demote), (_, again), *_ = [
            (t, event) for t, k, event in log if k == key
        ]
        assert (first, demoted_at, demote, again) == ("promote", at_fs, "demote", "promote")
    trips = sum(port.peer_faulty for port in net.ports.values())
    assert trips and net.fastpath.demotions == 3 + trips
    sent = net.ports[(down.a, down.b)].stats.sent
    assert sent["LOG"] > 50 and sent["BEACON_MSB"] > 10


def test_demotion_takes_the_direction_out_of_the_heap_and_its_queue():
    sim, net = _backlogged(chain(2), None)
    sim.run_until(200 * units.US)
    for _ in range(10):
        net.send_log("n0", "n1")
    sim.run_until(300 * units.US)
    fastpath = net.fastpath
    port = net.ports[("n0", "n1")]
    ds = fastpath._dirs[port]
    queued = len(ds.txq)
    assert queued >= 5
    mine = sum(entry[3] is ds for entry in fastpath._heap)
    others = len(fastpath._heap) - mine
    pending = len(sim._queue) - sim._cancelled_in_queue
    port.leave_fastpath()
    heap = fastpath._heap
    assert port not in fastpath._dirs and not ds.txq
    assert len(heap) == others and all(entry[3] is not ds for entry in heap)
    # Still a heap, and every pending event is now a real one.
    assert all(heap[(i - 1) // 2] < heap[i] for i in range(1, len(heap)))
    assert len(sim._queue) - sim._cancelled_in_queue == pending + mine + queued
    sim.run_until(1 * units.MS)
    assert port in fastpath._dirs and fastpath.promotions == 3


# ----------------------------------------------------------------------
# Engine merge plumbing
# ----------------------------------------------------------------------
def test_step_and_run_refuse_an_engine_with_a_coordinator_attached():
    # run_merged is the only loop that sees virtual events; stepping the
    # heap alone would silently skip them, so it is a named error.
    sim, net = _batched_chain()
    assert sim.fastpath is net.fastpath is not None
    for advance in (sim.step, sim.run, lambda: sim.run(max_events=1)):
        with pytest.raises(SimulationError, match='run_until.*backend="scalar"'):
            advance()
    assert sim._now == 0 and net.fastpath.virtual_events == 0
    sim.run_until(2 * units.MS)  # the engine is unharmed
    assert net.all_synchronized() and net.fastpath.promotions == 2


def test_step_and_run_without_a_source_are_the_plain_engine():
    # A bare engine: callbacks in (time, seq) order, the documented returns.
    def bare(cls):
        sim, fired = cls(), []
        for delay in (30, 10, 20, 10):
            sim.schedule(delay, fired.append, (delay, len(fired)))
        sim.cancel(sim.schedule(5, fired.append, "cancelled"))
        out = [sim.step(), sim.run(max_events=2), sim.run(), sim.step()]
        return out, fired, sim._now, sim._seq

    plain = bare(Simulator)
    assert plain[0] == [True, 2, 1, False]
    assert [delay for delay, _ in plain[1]] == [10, 10, 20, 30]

    # A network pinned on every link has no coordinator: step()/run() drive
    # the scalar port path on either backend, to the same state.
    def network(backend):
        sim = Simulator()
        net = DtpNetwork(sim, chain(3), RandomStreams(root_seed=4), backend=backend)
        net.pin_scalar({"n1"})
        net.start()
        ran = sim.run(max_events=4000)
        while sim._now < 300 * units.US:
            assert sim.step()
        return (
            ran, sim._now, sim._seq, net.fastpath,
            net.pair_offset("n0", "n2"), net.ports[("n1", "n2")].stats.jumps,
        )

    plain = network("scalar")
    assert network("batched") == plain
    assert plain[0] == 4000 and plain[3] is None


def test_promotion_ties_on_a_shared_oscillator_keep_scalar_order(tmp_path):
    # star(4) with every skew zero: the hub's four ports share one
    # oscillator and every device ticks alike, so promotions land on
    # same-femtosecond ties.  Each promotion is one virtual PLAN keyed
    # (now, -1) — the next event run_merged picks — so the counter and the
    # trace bytes stay the scalar run's.
    topology = star(4)

    def run(backend):
        telemetry = Telemetry()
        sim = Simulator()
        net = DtpNetwork(
            sim, topology, RandomStreams(root_seed=5),
            skews={name: ConstantSkew(0.0) for name in topology.nodes},
            telemetry=telemetry, backend=backend,
        )
        net.start()
        sim.run_until(1 * units.MS)
        path = tmp_path / f"{backend}.trace.jsonl"
        return _trace_file_bytes(telemetry, path), sim._seq, net

    scalar_bytes, scalar_seq, _ = run("scalar")
    batched_bytes, batched_seq, net = run("batched")
    assert batched_bytes == scalar_bytes
    assert batched_seq == scalar_seq == 25056
    fastpath = net.fastpath
    assert fastpath.promotions == 2 * len(topology.edges) == 8
    assert fastpath.demotions == 0
    # One PLAN per promotion on top of the 24952 events the chains ran.
    assert fastpath.virtual_events == 24952 + fastpath.promotions


def test_scalar_and_batched_write_the_same_trace_file_across_a_flap(tmp_path):
    # An msb cadence of 7 puts BEACON_MSB records in play and a down/up
    # flap adds a demotion and a re-promotion.
    from repro.dtp.messages import MessageType
    from repro.telemetry.events import EV_RX

    def run(backend):
        telemetry = Telemetry()
        sim = Simulator()
        net = DtpNetwork(
            sim, chain(3), RandomStreams(root_seed=11), telemetry=telemetry,
            config=DtpPortConfig(msb_interval_beacons=7), backend=backend,
        )
        net.start()
        sim.run_until(1 * units.MS)
        net.down_link("n0", "n1")
        net.up_link("n0", "n1")
        sim.run_until(2 * units.MS)
        if backend == "batched":
            assert net.fastpath.promotions == 6 and net.fastpath.demotions == 2
        msb_rx = sum(
            1 for r in telemetry.tracer.records
            if r[1] == EV_RX and r[3] == MessageType.BEACON_MSB
        )
        assert msb_rx > 100
        path = tmp_path / f"{backend}.trace.jsonl"
        return _trace_file_bytes(telemetry, path), sim._seq

    assert run("scalar") == run("batched")


def test_attach_fastpath_rejects_second_source():
    sim = Simulator()
    sim.attach_fastpath(object())
    with pytest.raises(SimulationError):
        sim.attach_fastpath(object())


def test_second_coordinator_on_one_engine_is_rejected():
    # Any Simulator hosts a coordinator — there is no engine class to get
    # wrong — but only one: two networks cannot share a batched engine.
    sim = Simulator()
    first = FastpathCoordinator(sim)
    assert sim.fastpath is first
    sim.attach_fastpath(first)  # re-attaching the same source is a no-op
    with pytest.raises(SimulationError, match="already attached"):
        FastpathCoordinator(sim)
    with pytest.raises(SimulationError, match="already attached"):
        DtpNetwork(sim, chain(2), RandomStreams(root_seed=0))


# ----------------------------------------------------------------------
# Vectorized kernels vs the scalar oracle
# ----------------------------------------------------------------------
def test_edge_times_kernel_matches_oracle():
    np = pytest.importorskip("numpy")
    from tests.fastpath_kernels import crosscheck_edge_times

    sim = Simulator()
    streams = RandomStreams(root_seed=7)
    net = DtpNetwork(sim, chain(2), streams)
    osc = net.devices["n0"].oscillator
    # Span several oscillator segments (1 ms updates) non-uniformly.
    ticks = np.unique(
        np.concatenate(
            [
                np.arange(1, 2000, 7, dtype=np.int64),
                np.arange(150_000, 160_000, 11, dtype=np.int64),
                np.arange(600_000, 600_500, 1, dtype=np.int64),
            ]
        )
    )
    assert crosscheck_edge_times(osc, ticks) == []


def test_clos_topology_shape():
    topo = clos(4, 8)
    assert len(topo.switches()) == 12
    assert len(topo.hosts()) == 32
    # Full bipartite leaf-spine stage plus host links: >100 directions.
    assert 2 * len(topo.edges) == 128
    assert topo.diameter_hops() == 4
