"""Counter wraparound at the 53-bit message boundary (paper Section 4.4).

Messages carry only the 53 LSBs of the 106-bit counter; the low half wraps
every ~667 days.  Synchronization must ride through the wrap seamlessly:
reconstruction picks the congruent value nearest the local counter, and
BEACON_MSB refreshes the high half.
"""

import pytest

from repro.dtp.messages import COUNTER_LOW_BITS
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.network.topology import chain
from repro.sim import units

WRAP = 1 << COUNTER_LOW_BITS


@pytest.fixture
def near_wrap_net(sim, streams):
    """Two nodes whose counters sit just below the 53-bit wrap."""
    net = DtpNetwork(
        sim, chain(2), streams,
        config=DtpPortConfig(msb_interval_beacons=100),
    )
    start = WRAP - 2_000  # ~12.8 us before the low half wraps
    for device in net.devices.values():
        device.gc.set_counter(0, start)
    net.start()
    return net


def test_sync_survives_the_wrap(sim, streams, near_wrap_net):
    net = near_wrap_net
    sim.run_until(units.MS)  # counters cross 2^53 within ~13 us
    assert net.counter_of("n0") > WRAP
    worst = 0
    t = sim.now
    for _ in range(300):
        t += 10 * units.US
        sim.run_until(t)
        worst = max(worst, net.max_abs_offset())
    assert worst <= 4


def test_msb_half_propagates_after_wrap(sim, streams, near_wrap_net):
    net = near_wrap_net
    sim.run_until(2 * units.MS)
    for port in net.ports.values():
        assert port.remote_msb == 1  # the high half ticked over


def test_log_channel_valid_across_wrap(sim, streams, near_wrap_net):
    net = near_wrap_net
    net.attach_logger("n0", "n1")
    sim.run_until(200 * units.US)
    for _ in range(100):
        net.send_log("n0", "n1")
        sim.run_until(sim.now + 5 * units.US)
    samples = net.logged_for("n0", "n1")
    assert len(samples) == 100
    assert all(-4 <= s.offset_ticks <= 4 for s in samples)


def test_max_merge_crosses_wrap_during_partition_heal(sim, streams):
    """Algorithm 2's max-merge carries a partition heal across 2^53.

    One subnet crosses the wrap boundary while the link is down; on heal,
    the BEACON_JOIN payload (53 wrapped LSBs) must reconstruct on the
    lagging side to the *post-wrap* value and pull it forward across the
    boundary — not backwards to the congruent pre-wrap value.
    """
    from repro.faultlab.faults import FaultContext, Partition

    net = DtpNetwork(
        sim, chain(2), streams,
        config=DtpPortConfig(msb_interval_beacons=100),
    )
    start = WRAP - 50_000
    for device in net.devices.values():
        device.gc.set_counter(0, start)
    net.start()
    Partition(
        "n0", "n1", down_at_fs=50 * units.US, up_at_fs=150 * units.US
    ).arm(FaultContext(network=net, streams=net.streams))

    def jump_across_wrap():
        # Emulate a long divergence on n0's side: it has already wrapped
        # by the time the link heals (n1 is still ~42k ticks below 2^53).
        net.devices["n0"].gc.set_counter(sim.now, WRAP + 500)

    sim.schedule_at(100 * units.US, jump_across_wrap)
    sim.run_until(500 * units.US)
    assert net.counter_of("n0") > WRAP
    assert net.counter_of("n1") > WRAP  # merged forward across the wrap
    assert net.max_abs_offset() <= 8
    assert net.all_synchronized()
