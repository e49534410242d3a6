#!/usr/bin/env python3
"""One-way delay measurement — the paper's motivating application.

With clocks synchronized to ~100 ns, one-way delay (OWD) can be measured
directly instead of halving a round trip (Section 1).  This example runs
two measurement hosts on a DTP-synchronized tree, sends timestamped probe
packets through a congested packet network, and compares:

* true OWD (from the simulator's omniscient clock);
* DTP-measured OWD (``repro.apps.OneWayDelayMeter``: receive counter
  minus the send counter stamped into the probe);
* the classic RTT/2 estimate, which asymmetric queueing corrupts.

Run:  python examples/owd_measurement.py
"""

import statistics

from repro.apps import OneWayDelayMeter
from repro.clocks import ConstantSkew, TscCounter
from repro.dtp import DtpDaemon, DtpNetwork, DtpPortConfig
from repro.network import PacketNetwork, paper_testbed
from repro.network.virtualload import heavy_backlog
from repro.sim import RandomStreams, Simulator, units


def main() -> None:
    sim = Simulator()
    streams = RandomStreams(31337)
    topology = paper_testbed()

    # Control plane: DTP synchronizes every device's counters.
    dtp = DtpNetwork(
        sim, topology, streams, config=DtpPortConfig(beacon_interval_ticks=1200)
    )
    dtp.start()

    # Data plane: the same topology as a packet network, with one congested
    # direction (S0 -> S3) so forward and reverse delays are asymmetric.
    packets = PacketNetwork(sim, topology)
    packets.switches["S0"].interfaces["S3"].virtual_load = heavy_backlog(
        streams.stream("congestion")
    )

    sim.run_until(2 * units.MS)

    # Each measurement host runs a DTP daemon to read its NIC counter.
    daemons = {}
    for name, tsc_ppm in (("S4", -6.0), ("S11", 3.0)):
        tsc = TscCounter(skew=ConstantSkew(tsc_ppm), name=f"tsc/{name}")
        daemons[name] = DtpDaemon(
            sim, dtp.devices[name], tsc, streams.stream(f"daemon/{name}"),
            sample_interval_fs=500 * units.US, smoothing_window=4,
        )
        daemons[name].start()
    sim.run_until(5 * units.MS)

    # The meter stamps each probe with the sender's daemon counter when the
    # NIC starts transmitting and subtracts at the receiver.  A probe each
    # way every 200 us for 40 ms: each pair is one ping's two legs.
    meter = OneWayDelayMeter(sim, packets, daemons)
    t = sim.now
    for _ in range(200):
        t += 200 * units.US
        sim.schedule_at(t, meter.probe, "S4", "S11")
        sim.schedule_at(t, meter.probe, "S11", "S4")
    sim.run_until(t + 5 * units.MS)

    out = [sample for sample in meter.samples if sample.dst == "S11"]
    back = [sample for sample in meter.samples if sample.dst == "S4"]
    forward = [sample.owd_fs / units.NS for sample in out]
    reverse = [sample.owd_fs / units.NS for sample in back]
    true_fwd = [sample.true_owd_fs / units.NS for sample in out]
    # The classic estimate: time the round trip on one clock, halve it.
    rtt_halves = [
        (there.true_owd_fs + here.true_owd_fs) / 2 / units.NS
        for there, here in zip(out, back)
    ]

    def describe(label, values):
        print(
            f"{label:<26s} median {statistics.median(values):9.1f} ns  "
            f"p95 {sorted(values)[int(len(values) * 0.95)]:9.1f} ns"
        )

    print(f"probes completed: {len(forward)} forward, {len(reverse)} reverse\n")
    describe("true forward OWD", true_fwd)
    describe("DTP-measured forward OWD", forward)
    describe("DTP-measured reverse OWD", reverse)
    describe("RTT/2 estimate", rtt_halves)
    print()
    error_dtp = statistics.median(forward) - statistics.median(true_fwd)
    error_rtt = statistics.median(rtt_halves) - statistics.median(true_fwd)
    print(f"DTP OWD error:   {error_dtp:9.1f} ns  (daemon read error only)")
    print(f"RTT/2 error:     {error_rtt:9.1f} ns  (hides path asymmetry)")
    assert abs(error_dtp) < 100.0 < abs(error_rtt)


if __name__ == "__main__":
    main()
