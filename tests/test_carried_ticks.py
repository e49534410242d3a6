"""A scalar event's carried tick is the tick of the instant it fires at.

``DtpPort._beacon_timeout`` fires with the tick index it was scheduled on,
``_transmit_now`` with its slot and ``_process`` with its RX edge; none
maps its time back with ``ticks_at``.  ``send_join`` takes the tick its
caller holds: T2's RX edge, or a JOIN's RX edge handed through
``DtpDevice.on_join`` to the device's other ports, which count the same
oscillator.  That is exact because every such event is scheduled at
``time_of_tick(n)`` and the oscillator guarantees ``ticks_at(time_of_tick(n))
== n``.  These tests wrap the four methods on the class, before any network
is built, and compare the carried index with ``port.osc.ticks_at(sim.now)``
at every call: the scalar chain, the events the batched coordinator's
``demote`` rebuilds (link-flap, a tripped fault window, two-faced's
``leave_fastpath``; and on saturated links, the captures queued behind a
direction's beacons and the APPLYs in flight), oscillator faults that move
the tick grid mid-run, and a spanning-tree network's stalling clocks.  The
last two tests count what the beacon chain asks the oscillator: no
``ticks_at`` at all in the steady state, and none inside ``_on_beacon``
while counters jump.
"""

from collections import Counter

import pytest

from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPort, DtpPortConfig
from repro.dtp.spanning_tree import configure_spanning_tree
from repro.ethernet.frames import MTU_FRAME, beacon_interval_ticks_for
from repro.experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp
from repro.experiments.workloads import saturated_traffic
from repro.fastpath.coordinator import APP_B
from repro.faultlab.campaign import run_scenario
from repro.faultlab.scenarios import builtin_specs
from repro.network.topology import chain
from repro.sim import units


@pytest.fixture
def carried(monkeypatch):
    """Counts of checked dispatches, and every mismatch seen (which an
    engine or campaign could swallow if the wrapper raised instead)."""
    seen, wrong = Counter(), []
    beacon_timeout = DtpPort._beacon_timeout
    transmit_now = DtpPort._transmit_now
    process = DtpPort._process
    send_join = DtpPort.send_join

    def check(kind, port, carried_tick):
        seen[kind] += 1
        actual = port.osc.ticks_at(port.sim._now)
        if carried_tick != actual:
            wrong.append((kind, port.name, port.sim._now, carried_tick, actual))

    def checked_timeout(port, tick):
        check("timeout", port, tick)
        beacon_timeout(port, tick)

    def checked_transmit(port, mtype, slot, echo):
        check("transmit", port, slot)
        transmit_now(port, mtype, slot, echo)

    def checked_process(port, bits56, tick):
        check("process", port, tick)
        process(port, bits56, tick)

    def checked_join(port, tick):
        check("join", port, tick)
        send_join(port, tick)

    monkeypatch.setattr(DtpPort, "_beacon_timeout", checked_timeout)
    monkeypatch.setattr(DtpPort, "_transmit_now", checked_transmit)
    monkeypatch.setattr(DtpPort, "_process", checked_process)
    monkeypatch.setattr(DtpPort, "send_join", checked_join)
    return seen, wrong


def _mtu_chain(sim, streams, backend, **network):
    """Fig. 6a's regime on ``chain(4)``: MTU-saturated links beaconing
    once per slot."""
    net = DtpNetwork(
        sim, chain(4), streams,
        config=DtpPortConfig(
            beacon_interval_ticks=beacon_interval_ticks_for(MTU_FRAME),
            msb_interval_beacons=50,
        ),
        backend=backend,
        **network,
    )
    net.install_traffic(saturated_traffic("mtu"))
    net.start()
    return net


def test_scalar_fig6a(carried):
    seen, wrong = carried
    config = Fig6DtpConfig(duration_fs=units.MS, warmup_fs=250 * units.US, seed=1)
    run_fig6_dtp(config, backend="scalar")
    assert wrong == []
    assert min(seen["timeout"], seen["transmit"], seen["process"]) > 10_000
    assert seen["join"] > 0


@pytest.mark.parametrize("backend", ["scalar", "batched"])
def test_builtin_scenarios(carried, backend):
    seen, wrong = carried
    for spec in builtin_specs(quick=True):
        run_scenario(dict(spec), seed=1, backend=backend)
        assert wrong == [], spec["name"]
    assert min(seen["timeout"], seen["transmit"], seen["process"], seen["join"]) > 0


def test_spanning_tree(carried, sim, streams):
    seen, wrong = carried
    net = DtpNetwork(
        sim, chain(4), streams,
        skews={"n2": ConstantSkew(90.0), "n3": ConstantSkew(-60.0)},
    )
    configure_spanning_tree(net, master="n0")
    net.start()
    sim.run_until(units.MS)
    assert net.devices["n2"].gc.stalls > 0
    assert wrong == []
    assert min(seen["timeout"], seen["transmit"], seen["process"]) > 100
    assert seen["join"] > 0


def test_demoted_backlog(carried, sim, streams):
    # Every LOG and BEACON_MSB queues a batched direction's later captures
    # behind it.  Handing every direction back re-materializes its PLAN
    # and queued CAPTUREs as scalar events with the tick and slots they
    # carry, and each APPLY in flight as the ``_process`` of its RX edge.
    seen, wrong = carried
    net = _mtu_chain(sim, streams, "batched")
    for step in range(1, 51):
        sim.run_until(step * 20 * units.US)
        if step >= 10:
            for port in net.ports.values():
                port.send_log()
    assert sum(len(ds.txq or ()) for ds in net.fastpath._dirs.values()) > 0
    heap = net.fastpath._heap
    while not any(entry[2] >= APP_B for entry in heap):
        sim.run_until(sim.now + units.NS)
    before = Counter(seen)
    for port in net.ports.values():
        port.leave_fastpath()
    sim.run_until(1200 * units.US)
    assert wrong == []
    assert net.fastpath.demotions == 6
    assert seen["transmit"] - before["transmit"] > 6
    assert seen["process"] - before["process"] > 6


def test_steady_beacon_chain_reads_no_tick(sim, streams, monkeypatch):
    # Equal oscillators, so no beacon ever jumps a counter (a jump still
    # goes through ``adjust_to_max``'s time-based reads), and no LOGs:
    # each beacon's timeout, transmission and processing read only the
    # ticks they carry.  ``_arrive`` finds its edge on the cached segment.
    net = _mtu_chain(
        sim, streams, "scalar",
        skews={node: ConstantSkew(0.0) for node in chain(4).nodes},
    )
    sim.run_until(500 * units.US)
    ports = list(net.ports.values())
    beacons = sum(port.stats.sent["BEACON"] for port in ports)
    jumps = sum(port.stats.jumps for port in ports)
    calls = Counter()
    ticks_at = Oscillator.ticks_at

    def counted(osc, t_fs):
        calls["ticks_at"] += 1
        return ticks_at(osc, t_fs)

    monkeypatch.setattr(Oscillator, "ticks_at", counted)
    sim.run_until(1500 * units.US)
    beacons = sum(port.stats.sent["BEACON"] for port in ports) - beacons
    assert beacons > 4000 and sum(port.stats.jumps for port in ports) == jumps
    assert calls["ticks_at"] == 0


def test_counter_jumps_read_no_tick(sim, streams, monkeypatch):
    # Random skews, so beacons jump counters all along: T4 and Algorithm
    # 2's ``gc <- max(gc, lc)`` move the plain clocks on the RX edge the
    # beacon carries, and read no time.  (A port binds its handlers when
    # it is built, so the wrapper goes in first.)
    on_beacon = DtpPort._on_beacon
    ticks_at = Oscillator.ticks_at
    calls = Counter()

    def counted_beacon(port, payload, now, tick):
        calls["beacons"] += 1
        calls["inside"] = 1
        try:
            on_beacon(port, payload, now, tick)
        finally:
            calls["inside"] = 0

    def counted_ticks_at(osc, t_fs):
        calls["ticks_at"] += calls["inside"]
        return ticks_at(osc, t_fs)

    monkeypatch.setattr(DtpPort, "_on_beacon", counted_beacon)
    monkeypatch.setattr(Oscillator, "ticks_at", counted_ticks_at)
    net = _mtu_chain(sim, streams, "scalar")
    sim.run_until(2 * units.MS)
    jumps = sum(port.stats.jumps for port in net.ports.values())
    assert calls["beacons"] > 8000 and jumps > 50
    assert calls["ticks_at"] == 0
