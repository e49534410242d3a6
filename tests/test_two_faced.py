"""The two-faced clock assumption (paper Section 3.1) is load-bearing.

A Byzantine port that reports different counters to different peers breaks
DTP in two distinct ways, depending on the lie's size:

* a lie *inside* the ±8 reject window compounds through max() into a
  **rate attack**: the whole network's counter races ahead of every real
  oscillator (pairwise offsets deceptively stay small);
* a lie *outside* the window permanently **splits** the victim from the
  honest side (and the honest nodes end up rejecting the victim's — not
  the liar's — beacons, so naive fault detection blames the wrong node).

Both justify the paper's assumption: DTP is not Byzantine-tolerant and
does not claim to be.
"""

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.network import DtpNetwork
from repro.faultlab.faults import FaultContext, TwoFacedNode
from repro.network.topology import chain
from repro.sim import units
from repro.sim.randomness import RandomStreams


def build(sim, lie_ticks):
    net = DtpNetwork(
        sim, chain(3), RandomStreams(77),
        skews={name: ConstantSkew(0.0) for name in ("n0", "n1", "n2")},
    )
    if lie_ticks:
        TwoFacedNode("n1", "n2", lie_ticks).arm(
            FaultContext(network=net, streams=net.streams)
        )
    net.start()
    return net


def nominal_ticks(t_fs):
    return t_fs // units.TICK_10G_FS


def test_honest_network_tracks_real_time(sim):
    net = build(sim, lie_ticks=0)
    sim.run_until(3 * units.MS)
    excess = net.counter_of("n0") - nominal_ticks(sim.now)
    assert abs(excess) <= 2
    worst = 0
    t = sim.now
    for _ in range(100):
        t += 20 * units.US
        sim.run_until(t)
        worst = max(worst, abs(net.pair_offset("n0", "n2", t)))
    assert worst <= 8  # two hops


def test_small_lie_becomes_a_rate_attack(sim):
    """A 6-tick lie ratchets the global counter far beyond any oscillator:
    max() re-absorbs the inflated counter every beacon round-trip."""
    net = build(sim, lie_ticks=6)
    sim.run_until(3 * units.MS)
    excess = net.counter_of("n0") - nominal_ticks(sim.now)
    assert excess > 1000  # no real clock could have produced this
    # ...while pairwise offsets look perfectly healthy: the attack is
    # invisible to DTP's own precision metric.
    assert abs(net.pair_offset("n0", "n2")) <= 8


def test_large_lie_splits_the_network(sim):
    """A 1000-tick lie lands once via BEACON_JOIN and never heals: the
    victim sits 1000 ticks ahead of the honest side forever."""
    net = build(sim, lie_ticks=1000)
    sim.run_until(3 * units.MS)
    split = abs(net.pair_offset("n0", "n2"))
    assert split > 900  # 4TD (= 8) is long gone
    # The honest middle node rejects the *victim's* beacons — fault
    # detection sees the wrong culprit.
    honest_port = net.ports[("n1", "n2")]
    assert honest_port.stats.rejected_out_of_range > 100
