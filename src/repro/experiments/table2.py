"""Table 2: PHY parameters across 1G / 10G / 40G / 100G.

Two parts:

* the static table itself (encoding, data width, frequency, period and the
  per-tick counter increment ``delta`` at the common 0.32 ns granularity);
* a dynamic verification that DTP actually synchronizes at every speed
  when counters increment by ``delta``: a two-node network per speed, with
  the per-link bound now ``4 * delta`` counter units (still 4 ticks).
"""

from __future__ import annotations

from typing import Dict, List

from ..dtp.network import DtpNetwork
from ..dtp.port import DtpPortConfig
from ..network.topology import star
from ..phy.specs import COMMON_COUNTER_UNIT_FS, SPECS, PhySpec
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from ..telemetry import Telemetry
from .harness import ExperimentResult


def expected_dtp_message_rate(beacon_interval_ticks: int, period_fs: int) -> float:
    """Beacons per second per direction for a given interval.

    Paper Section 1: "hundreds of thousands of protocol messages" per
    second — 781,250/s at the 200-tick interval.
    """
    return units.SEC / (beacon_interval_ticks * period_fs)


def render_spec_row(spec: PhySpec) -> str:
    return (
        f"{spec.name:5s} | {spec.encoding:7s} | {spec.data_width_bits:3d} bit "
        f"| {spec.frequency_hz / 1e6:9.2f} MHz | {spec.period_ns:5.2f} ns "
        f"| delta={spec.counter_increment:3d}"
    )


def verify_speed(
    spec: PhySpec,
    duration_fs: int = 2 * units.MS,
    seed: int = 9,
) -> Dict[str, object]:
    """Run two DTP nodes at one PHY speed; check the 4-tick bound holds.

    Message counts come from the telemetry metrics registry (the single
    source of truth for port counters), not from ad-hoc stat plumbing:
    the run carries a metrics-only :class:`~repro.telemetry.Telemetry`
    and reads ``dtp_messages_sent_total`` back out of it.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    telemetry = Telemetry(trace=False)
    net = DtpNetwork(
        sim,
        star(2),
        streams,
        spec=spec,
        counter_increment=spec.counter_increment,
        config=DtpPortConfig(beacon_interval_ticks=200),
        telemetry=telemetry,
    )
    net.start()
    sim.run_until(duration_fs // 4)
    worst_units = 0
    t = sim.now
    while t < duration_fs:
        t += 20 * units.US
        sim.run_until(t)
        worst_units = max(worst_units, net.max_abs_offset())
    bound_units = 4 * spec.counter_increment
    # Message accounting, read back from the metrics registry.
    sent_family = telemetry.registry.get("dtp_messages_sent_total")
    beacons_sent = sum(
        child.value
        for key, child in sent_family.samples()
        if key[sent_family.labelnames.index("type")] == "BEACON"
    )
    messages_sent = sum(child.value for _key, child in sent_family.samples())
    duration_s = duration_fs / units.SEC
    expected_rate = expected_dtp_message_rate(200, spec.period_fs)
    # Every port direction sends beacons; each starts after its INIT
    # exchange, so allow generous slack below the ideal rate.
    directions = 2 * len(net.topology.edges)
    beacon_rate = beacons_sent / directions / duration_s
    # Counter units are COMMON_COUNTER_UNIT_FS (0.32 ns) each.
    return {
        "speed": spec.name,
        "worst_offset_counter_units": worst_units,
        "worst_offset_ns": worst_units * COMMON_COUNTER_UNIT_FS / units.NS,
        "bound_counter_units": bound_units,
        "bound_ns": bound_units * COMMON_COUNTER_UNIT_FS / units.NS,
        "within_bound": worst_units <= bound_units,
        "messages_sent": messages_sent,
        "beacons_sent": beacons_sent,
        "beacon_rate_per_dir_per_s": beacon_rate,
        "expected_beacon_rate_per_s": expected_rate,
        "beacon_rate_plausible": 0.5 * expected_rate <= beacon_rate <= 1.1 * expected_rate,
    }


def run_table2(duration_fs: int = 2 * units.MS, seed: int = 9) -> ExperimentResult:
    result = ExperimentResult(name="table2-phy-speeds")
    rows: List[str] = [render_spec_row(spec) for spec in SPECS.values()]
    result.summary["rows"] = rows
    # Static invariants of the table.
    result.summary["increments_common_unit"] = all(
        abs(spec.period_fs - spec.counter_increment * COMMON_COUNTER_UNIT_FS) == 0
        for spec in SPECS.values()
    )
    verdicts = []
    for spec in SPECS.values():
        verdict = verify_speed(spec, duration_fs=duration_fs, seed=seed)
        verdicts.append(verdict)
        result.summary[f"verify_{spec.name}"] = (
            f"worst={verdict['worst_offset_ns']:.2f} ns "
            f"bound={verdict['bound_ns']:.2f} ns ok={verdict['within_bound']} "
            f"beacons/s/dir={verdict['beacon_rate_per_dir_per_s']:.0f}"
        )
    result.summary["all_speeds_within_bound"] = all(
        verdict["within_bound"] for verdict in verdicts
    )
    result.summary["all_message_rates_plausible"] = all(
        verdict["beacon_rate_plausible"] for verdict in verdicts
    )
    # Raw registry counters per speed, for the report's metrics section.
    result.summary["message_counters"] = {
        verdict["speed"]: {
            "messages_sent": verdict["messages_sent"],
            "beacons_sent": verdict["beacons_sent"],
            "beacon_rate_per_dir_per_s": round(
                verdict["beacon_rate_per_dir_per_s"]
            ),
            "expected_beacon_rate_per_s": round(
                verdict["expected_beacon_rate_per_s"]
            ),
            "plausible": verdict["beacon_rate_plausible"],
        }
        for verdict in verdicts
    }
    return result
