"""A payload read at its slot is the payload a time-based read builds.

``DtpPort._transmit_now`` fires on its slot, and ``_payload_at`` reads a
plain ``TickClock`` there as ``increment * slot + offset``.  Only a clock
that is not plain, a device class that overrides ``global_counter`` or a
patched ``_tx_counter`` answers for itself at ``now``.  These tests wrap
both methods on the class before any network is built.  At every
transmission they compare the payload sent with :func:`time_based_payload`,
which reads every counter from the time of the send.  Each message type
is covered under the four setups that leave the plain read: two-faced's
lying ``_tx_counter``, parity beacons, a spanning tree's follower and
inert clocks, and a device subclass.
"""

from collections import Counter

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.dtp import messages as dtpmsg
from repro.dtp.device import DtpDevice
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPort, DtpPortConfig
from repro.dtp.spanning_tree import configure_spanning_tree
from repro.faultlab.faults import FaultContext, TwoFacedNode
from repro.network.topology import chain
from repro.sim import units

MessageType = dtpmsg.MessageType


def time_based_payload(port, mtype, now, echo):
    """What ``mtype`` carries if every counter is read at ``now``."""
    if mtype is MessageType.INIT_ACK:
        return echo
    if mtype is MessageType.INIT:
        return dtpmsg.counter_low(port.lc.counter_at(now))
    counter = port._tx_counter(now)
    if mtype is MessageType.BEACON_MSB:
        return dtpmsg.counter_high(counter)
    if mtype is MessageType.BEACON and port.config.parity:
        return dtpmsg.payload_with_parity(counter)
    return dtpmsg.counter_low(counter)


@pytest.fixture
def sent(monkeypatch):
    """Payloads sent by type name, and every one that differs from the
    time-based reference (a raise could be swallowed by a campaign)."""
    seen, wrong, expected = Counter(), [], []
    transmit_now = DtpPort._transmit_now
    payload_at = DtpPort._payload_at

    def checked_transmit(port, mtype, slot, echo):
        expected.append(time_based_payload(port, mtype, port.sim._now, echo))
        try:
            transmit_now(port, mtype, slot, echo)
        finally:
            expected.pop()

    def recorded_payload(port, mtype, now, slot, echo):
        payload = payload_at(port, mtype, now, slot, echo)
        seen[mtype.name] += 1
        if payload != expected[-1]:
            wrong.append((mtype.name, port.name, now, payload, expected[-1]))
        return payload

    monkeypatch.setattr(DtpPort, "_transmit_now", checked_transmit)
    monkeypatch.setattr(DtpPort, "_payload_at", recorded_payload)
    return seen, wrong


class _AheadDevice(DtpDevice):
    """A device class whose ``global_counter`` is not ``gc``'s reading."""

    def global_counter(self, t_fs: int) -> int:
        return super().global_counter(t_fs) + 7


def _network(sim, streams, backend, parity=False):
    return DtpNetwork(
        sim, chain(4), streams,
        config=DtpPortConfig(msb_interval_beacons=20, parity=parity),
        skews={"n2": ConstantSkew(90.0), "n3": ConstantSkew(-60.0)},
        backend=backend,
    )


def _drive(sim, net):
    """Start ``net`` and run 1 ms, every port sending LOGs from 200 us."""
    net.start()
    for step in range(1, 41):
        sim.run_until(step * 25 * units.US)
        if step >= 8:
            for port in net.ports.values():
                port.send_log()


def _two_faced(sim, streams, backend):
    net = _network(sim, streams, backend)
    lie = TwoFacedNode("n1", "n2", lie_ticks=5, at_fs=300 * units.US)
    lie.arm(FaultContext(network=net, streams=streams))
    return net


def _parity(sim, streams, backend):
    return _network(sim, streams, backend, parity=True)


def _spanning_tree(sim, streams, backend):
    net = _network(sim, streams, backend)
    configure_spanning_tree(net, master="n0")
    return net


def _device_subclass(sim, streams, backend):
    net = _network(sim, streams, backend)
    for name in ("n0", "n2"):
        net.devices[name].__class__ = _AheadDevice
    return net


@pytest.mark.parametrize("backend", ["scalar", "batched"])
@pytest.mark.parametrize(
    "build", [_two_faced, _parity, _spanning_tree, _device_subclass]
)
def test_every_payload_is_the_time_based_one(sent, sim, streams, build, backend):
    seen, wrong = sent
    net = build(sim, streams, backend)
    _drive(sim, net)
    assert wrong == []
    assert set(seen) == {mtype.name for mtype in MessageType}
    assert seen["BEACON"] > 100 and seen["LOG"] > 100


def test_a_stalled_follower_sends_its_held_counter(sent, sim, streams):
    # A follower stalls for a tick or two now and then, which a send rarely
    # meets; here its authority is 50 ticks behind, so its counter holds
    # for 50 ticks, and the LOGs sent meanwhile carry the held value.
    seen, wrong = sent
    net = _spanning_tree(sim, streams, "scalar")
    _drive(sim, net)
    sim.run_until(sim.now + 10 * units.US)  # the last LOGs leave
    device = net.devices["n2"]
    now = sim.now
    assert device.gc.track(now, device.gc.counter_at(now) - 50) == "stall"
    before = seen["LOG"]
    for port in device.ports:
        port.send_log()
    sim.run_until(now + 50 * units.NS)
    assert seen["LOG"] - before == 2 and wrong == []
