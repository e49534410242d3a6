"""The faultlab fault-model library: validation, determinism, mechanics."""

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.network import DtpNetwork
from repro.faultlab import (
    FAULT_KINDS,
    BeaconSuppression,
    BerBurst,
    FaultContext,
    InvariantChecker,
    LinkFlap,
    NodeCrash,
    OscillatorGlitch,
    Partition,
    RunawayQuarantine,
    SteppedSkew,
    TwoFacedNode,
)
from repro.network.topology import chain
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


def _net(sim, streams, hosts=3, skews=None):
    return DtpNetwork(sim, chain(hosts), streams, skews=skews)


def _ctx(net, checker=None):
    return FaultContext(network=net, streams=net.streams, checker=checker)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_link_flap_rejects_overlong_downtime():
    with pytest.raises(ValueError, match="down_for must be shorter"):
        LinkFlap("n0", "n1", down_every_fs=units.US, down_for_fs=units.US)


def test_link_flap_rejects_overlapping_jitter():
    with pytest.raises(ValueError, match="jitter"):
        LinkFlap(
            "n0", "n1",
            down_every_fs=100 * units.US,
            down_for_fs=90 * units.US,
            jitter_fs=20 * units.US,
        )


def test_partition_rejects_backwards_heal():
    with pytest.raises(ValueError, match="heal must come after the cut"):
        Partition("n0", "n1", down_at_fs=units.MS, up_at_fs=units.US)


def test_ber_burst_rejects_bad_rate():
    with pytest.raises(ValueError):
        BerBurst("n0", "n1", start_fs=0, duration_fs=units.US, ber=1.5)
    with pytest.raises(ValueError):
        BerBurst("n0", "n1", start_fs=0, duration_fs=0, ber=1e-6)


def test_double_arm_raises(sim, streams):
    net = _net(sim, streams)
    fault = Partition("n0", "n1", down_at_fs=units.US, up_at_fs=2 * units.US)
    fault.arm(_ctx(net))
    with pytest.raises(RuntimeError, match="already armed"):
        fault.arm(_ctx(net))


def test_fault_kinds_registry_is_consistent():
    for kind, cls in FAULT_KINDS.items():
        assert cls.kind == kind
    assert set(FAULT_KINDS) == {
        "link-flap", "partition", "ber-burst", "node-crash",
        "beacon-suppression", "two-faced", "oscillator-glitch", "runaway",
    }


# ----------------------------------------------------------------------
# Determinism: per-fault named streams (the FlappingLink fix)
# ----------------------------------------------------------------------
def _flap_down_times(with_extra_fault):
    """Down-transition times of a jittered LinkFlap, optionally with an
    unrelated fault armed first (which draws its own randomness)."""
    sim = Simulator()
    streams = RandomStreams(root_seed=99)
    net = _net(sim, streams)
    ctx = _ctx(net)
    if with_extra_fault:
        BerBurst(
            "n1", "n2", start_fs=100 * units.US,
            duration_fs=100 * units.US, ber=1e-7,
        ).arm(ctx)
    flap = LinkFlap(
        "n0", "n1",
        down_every_fs=300 * units.US,
        down_for_fs=50 * units.US,
        start_fs=200 * units.US,
        flaps=3,
        jitter_fs=40 * units.US,
    )
    flap.arm(ctx)
    times = []
    original = net.down_link

    def recording(a, b):
        if (a, b) == ("n0", "n1"):
            times.append(sim.now)
        original(a, b)

    net.down_link = recording
    net.start()
    sim.run_until(1500 * units.US)
    assert flap.flap_count == 3
    return times


def test_flap_schedule_immune_to_unrelated_faults():
    # The old dtp.faults implementation shared the global RNG stream, so
    # arming any other randomness consumer shifted the flap times.
    assert _flap_down_times(False) == _flap_down_times(True)


def test_flap_jitter_actually_randomizes():
    baseline = _flap_down_times(False)
    nominal = [
        (200 + 300 * i) * units.US for i in range(3)
    ]
    assert baseline != nominal  # jitter applied
    assert all(
        abs(t - n) <= 40 * units.US for t, n in zip(baseline, nominal)
    )


# ----------------------------------------------------------------------
# Mechanics
# ----------------------------------------------------------------------
def test_ber_burst_swaps_and_restores_injectors(sim, streams):
    net = _net(sim, streams)
    checker = InvariantChecker(net)
    fault = BerBurst(
        "n0", "n1", start_fs=300 * units.US,
        duration_fs=300 * units.US, ber=1e-3,
    )
    fault.arm(_ctx(net, checker))
    net.start()
    sim.run_until(400 * units.US)
    assert net.ports[("n0", "n1")].ber is not None
    assert sorted(checker._quarantined) == ["n0", "n1"]
    sim.run_until(1200 * units.US)
    assert net.ports[("n0", "n1")].ber is None  # restored
    assert fault.summary()["errors_injected"] > 0


def test_node_crash_resets_counter_and_recovers(sim, streams):
    net = _net(sim, streams)
    checker = InvariantChecker(net)
    fault = NodeCrash("n2", at_fs=400 * units.US, restart_after_fs=200 * units.US)
    fault.arm(_ctx(net, checker))
    net.start()
    sim.run_until(500 * units.US)
    assert sorted(checker._quarantined) == ["n2"]
    sim.run_until(1500 * units.US)
    assert fault.crashes == 1
    assert checker.total_violations == 0
    assert "node-crash" in checker.recovery_fs
    assert not checker._healing
    assert net.all_synchronized()
    # The reboot really did reset: the counter restarted well below where
    # an uninterrupted clock would be, then max-merged back up.
    assert net.counter_of("n2") == pytest.approx(net.counter_of("n0"), abs=8)


def test_beacon_suppression_drops_only_beacons(sim, streams):
    skews = {"n0": ConstantSkew(20.0), "n1": ConstantSkew(-20.0)}
    net = _net(sim, streams, hosts=2, skews=skews)
    checker = InvariantChecker(net)
    fault = BeaconSuppression(
        "n0", "n1", start_fs=300 * units.US, duration_fs=500 * units.US
    )
    fault.arm(_ctx(net, checker))
    net.start()
    sim.run_until(1500 * units.US)
    assert fault.suppressed > 0
    assert net.ports[("n0", "n1")].tx_allow is None  # hook removed
    assert checker.total_violations == 0
    assert net.all_synchronized()


def test_two_faced_port_lies_by_the_configured_amount(sim, streams):
    net = _net(sim, streams)
    TwoFacedNode("n0", "n1", lie_ticks=7).arm(_ctx(net))
    net.start()
    sim.run_until(100 * units.US)
    t = sim.now
    device = net.devices["n0"]
    honest = device.global_counter(t)
    assert net.ports[("n0", "n1")]._tx_counter(t) == honest + 7 * device.counter_increment
    # ... but only toward the victim:
    assert net.ports[("n0", "n1")].peer is net.ports[("n1", "n0")]


def test_stepped_skew_switches_at_the_step():
    skew = SteppedSkew(ConstantSkew(10.0), step_fs=units.MS, after_ppm=80.0)
    assert skew.ppm_at(0) == 10.0
    assert skew.ppm_at(units.MS - 1) == 10.0
    assert skew.ppm_at(units.MS) == 80.0
    assert skew.ppm_at(2 * units.MS) == 80.0


def test_oscillator_glitch_reverts(sim, streams):
    net = _net(sim, streams)
    OscillatorGlitch(
        "n1", at_fs=500 * units.US, duration_fs=1200 * units.US, glitch_ppm=60.0
    ).arm(_ctx(net))
    skew = net.devices["n1"].oscillator.skew
    before = skew.ppm_at(100 * units.US)
    inside = skew.ppm_at(600 * units.US)
    after = skew.ppm_at(2 * units.MS)
    assert inside == pytest.approx(before + 60.0)
    assert after == pytest.approx(before)


def test_runaway_quarantines_but_network_follows(sim, streams):
    net = _net(sim, streams)
    checker = InvariantChecker(net)
    RunawayQuarantine("n2", at_fs=300 * units.US, runaway_ppm=500.0).arm(
        _ctx(net, checker)
    )
    net.start()
    sim.run_until(1500 * units.US)
    assert sorted(checker._quarantined) == ["n2"]
    # Everyone follows the fastest clock (Section 5.4): the healthy pair
    # stays in bound even while tracking the runaway rate.
    assert checker.total_violations == 0
    assert net.all_synchronized()
