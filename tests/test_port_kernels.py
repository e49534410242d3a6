"""Both backends run the port's rules through the same three kernels.

``DtpPort._apply_beacon`` (T4, Algorithm 2 and the Section 3.2 window on
the carried RX tick), ``DtpPort._tx_slot`` (the ``/E/`` slot arbiter and
the BEACON_MSB cadence) and ``SyncFifo.settle`` (the CDC draw) are the
only copies of those rules: the scalar handlers call them from engine
events, the batched coordinator from its virtual heap.  Wrapped on the
class before a network is built, each call is logged with its arguments
and result; a traced, saturated, random-skew ``chain(4)`` sending LOGs,
with one fault-window trip, logs the same calls in the same order on
both backends.
"""

from collections import Counter

import pytest

from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPort, DtpPortConfig
from repro.ethernet.frames import MTU_FRAME, beacon_interval_ticks_for
from repro.experiments.workloads import saturated_traffic
from repro.network.topology import chain
from repro.phy.cdc import SyncFifo
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry import Telemetry
from repro.telemetry.events import EV_PEER_FAULT


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    apply_beacon = DtpPort._apply_beacon
    tx_slot = DtpPort._tx_slot
    settle = SyncFifo.settle

    def logged_apply(port, payload, now, tick):
        tripped = apply_beacon(port, payload, now, tick)
        calls.append(("apply", port.name, payload, now, tick, tripped))
        return tripped

    def logged_slot(port, tick, beacon=False):
        slot = tx_slot(port, tick, beacon)
        calls.append(("slot", port.name, tick, beacon, slot))
        return slot

    def logged_settle(fifo, n):
        edge = settle(fifo, n)
        calls.append(("settle", fifo, n, edge))
        return edge

    monkeypatch.setattr(DtpPort, "_apply_beacon", logged_apply)
    monkeypatch.setattr(DtpPort, "_tx_slot", logged_slot)
    monkeypatch.setattr(SyncFifo, "settle", logged_settle)
    return calls


def _run(backend, calls):
    calls.clear()
    sim = Simulator()
    telemetry = Telemetry()
    net = DtpNetwork(
        sim, chain(4), RandomStreams(root_seed=1234),
        config=DtpPortConfig(
            beacon_interval_ticks=beacon_interval_ticks_for(MTU_FRAME),
            msb_interval_beacons=50,
            fault_window_beacons=100,
            max_jumps_per_window=2,
        ),
        backend=backend,
        telemetry=telemetry,
    )
    net.install_traffic(saturated_traffic("mtu"))
    net.start()
    for step in range(1, 41):
        sim.run_until(step * 25 * units.US)
        if step >= 8:
            for port in net.ports.values():
                port.send_log()
    # A FIFO is named by its port, so the two runs' logs compare.
    names = {port.fifo: port.name for port in net.ports.values()}
    log = [
        (kind, names[who], *rest) if kind == "settle" else (kind, who, *rest)
        for kind, who, *rest in calls
    ]
    trips = [r for r in telemetry.tracer.records if r[1] == EV_PEER_FAULT]
    return log, len(trips), net, sim._seq


def test_both_backends_call_the_kernels_alike(kernel_calls):
    scalar, scalar_trips, _, scalar_seq = _run("scalar", kernel_calls)
    batched, trips, net, seq = _run("batched", kernel_calls)
    kinds = Counter(call[0] for call in batched)
    assert min(kinds.values()) > 2000
    beacon_slots = [call[4] for call in batched if call[0] == "slot" and call[3]]
    assert len(beacon_slots) > 1000
    assert sum(1 for slot in beacon_slots if slot < 0) > 10  # BEACON_MSBs due
    assert scalar_trips == trips == 1
    assert net.fastpath.promotions == 6 and net.fastpath.demotions == 1
    assert batched == scalar
    assert seq == scalar_seq
