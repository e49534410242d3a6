"""Ablations of DTP's design choices (our additions, motivated by §3.3).

* **alpha sweep** — §3.3 introduces alpha = 3 so the measured OWD never
  exceeds the true delay; without it the global counter outruns the
  fastest oscillator.  We measure the network counter's excess rate.
* **beacon-interval sweep** — the two-tick beacon contribution holds only
  below ~5000 ticks (32 us); beyond it precision degrades linearly.
* **CDC FIFO on/off** — the random 0-1 cycle is the only nondeterminism;
  removing it tightens the offset spread (the White-Rabbit-style
  improvement §8 hints at).
* **bit errors** — with the reject-threshold filter DTP shrugs off BER
  many orders above the 802.3 objective; with the filter disabled a single
  corrupted BEACON can fling a counter far forward (max() never recovers).
* **cable asymmetry** — DTP's OWD halving assumes symmetric propagation;
  asymmetric cables bias the offset by half the asymmetry.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..clocks.oscillator import ConstantSkew
from ..dtp.network import DtpNetwork
from ..dtp.port import DtpPortConfig
from ..network.link import Cable
from ..network.topology import Topology, chain
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, steps, worst_offset


def _two_node_net(
    sim: Simulator,
    seed: int,
    config: Optional[DtpPortConfig] = None,
    cable: Optional[Cable] = None,
) -> DtpNetwork:
    topology = Topology(name="pair")
    topology.add_host("fast")
    topology.add_host("slow")
    topology.add_link("fast", "slow", cable or Cable(length_m=10.0))
    return DtpNetwork(
        sim,
        topology,
        RandomStreams(seed),
        config=config,
        skews={"fast": ConstantSkew(100.0), "slow": ConstantSkew(-100.0)},
    )


def run_alpha_sweep(
    alphas: List[int] = (0, 1, 2, 3, 4),
    duration_fs: int = 4 * units.MS,
    seed: int = 10,
) -> ExperimentResult:
    """Does the global counter outrun the fastest clock without alpha=3?"""
    result = ExperimentResult(name="ablation-alpha", params={"seed": seed})
    excess: Dict[int, int] = {}
    offsets: Dict[int, int] = {}
    for alpha in alphas:
        sim = Simulator()
        net = _two_node_net(sim, seed, config=DtpPortConfig(alpha=alpha))
        net.start()
        sim.run_until(duration_fs // 4)
        fast_device = net.devices["fast"]
        gc_start = fast_device.global_counter(sim.now)
        ticks_start = fast_device.oscillator.ticks_at(sim.now)
        offsets[alpha] = worst_offset(net, duration_fs)
        gc_gain = fast_device.global_counter(sim.now) - gc_start
        tick_gain = fast_device.oscillator.ticks_at(sim.now) - ticks_start
        # Positive excess: the network counter ran faster than the fastest
        # oscillator — the failure mode alpha = 3 exists to prevent.
        excess[alpha] = gc_gain - tick_gain
    result.summary["counter_excess_ticks"] = excess
    result.summary["worst_offset_ticks"] = offsets
    result.summary["alpha3_no_excess"] = excess.get(3, 1) <= 0
    result.summary["alpha0_excess"] = excess.get(0, 0)
    return result


def run_beacon_interval_sweep(
    intervals: List[int] = (200, 1200, 2500, 4000, 5000, 10_000, 20_000),
    duration_fs: int = 6 * units.MS,
    seed: int = 11,
) -> ExperimentResult:
    """Offset vs beacon interval: the 5000-tick budget of Section 3.3."""
    result = ExperimentResult(name="ablation-beacon-interval", params={"seed": seed})
    worst_by_interval: Dict[int, int] = {}
    for interval in intervals:
        sim = Simulator()
        net = _two_node_net(
            sim, seed, config=DtpPortConfig(beacon_interval_ticks=interval)
        )
        net.start()
        sim.run_until(duration_fs // 4)
        worst_by_interval[interval] = worst_offset(net, duration_fs)
    result.summary["worst_offset_ticks"] = worst_by_interval
    result.summary["within_4_up_to_4000"] = all(
        worst <= 4 for interval, worst in worst_by_interval.items() if interval <= 4000
    )
    result.summary["degrades_beyond_5000"] = any(
        worst > 4 for interval, worst in worst_by_interval.items() if interval > 5000
    )
    return result


def run_cdc_ablation(
    duration_fs: int = 4 * units.MS, seed: int = 12
) -> ExperimentResult:
    """Measurement jitter with and without the CDC FIFO's random cycle.

    The synchronization FIFO is the *only* nondeterministic element in the
    DTP message path (Section 2.5), so removing it should collapse the
    per-message spread of logged offsets — the improvement a SyncE-style
    syntonized deployment would see (Section 8).  The worst *true* offset
    is bounded either way; the spread of the measurement channel is the
    observable that changes.
    """
    result = ExperimentResult(name="ablation-cdc", params={"seed": seed})
    for enabled in (True, False):
        sim = Simulator()
        net = _two_node_net(sim, seed)
        for port in net.ports.values():
            port.fifo.enabled = enabled
        net.start()
        net.attach_logger("fast", "slow")
        sim.run_until(duration_fs // 4)
        worst_true = 0
        for _t in steps(sim, 20 * units.US, duration_fs):
            net.send_log("fast", "slow")
            worst_true = max(worst_true, net.max_abs_offset())
        samples = [s.offset_ticks for s in net.logged_for("fast", "slow")]
        spread = max(samples) - min(samples) if samples else 0
        key = "on" if enabled else "off"
        result.summary[f"worst_true_offset_ticks_cdc_{key}"] = worst_true
        result.summary[f"logged_spread_ticks_cdc_{key}"] = spread
    result.summary["cdc_off_reduces_spread"] = (
        result.summary["logged_spread_ticks_cdc_off"]
        <= result.summary["logged_spread_ticks_cdc_on"]
    )
    result.summary["both_within_bound"] = (
        result.summary["worst_true_offset_ticks_cdc_on"] <= 4
        and result.summary["worst_true_offset_ticks_cdc_off"] <= 4
    )
    return result


def run_bit_error_ablation(
    ber: float = 1e-4,
    duration_fs: int = 6 * units.MS,
    seed: int = 13,
) -> ExperimentResult:
    """The Section 3.2 reject filter under (absurdly) high bit error rates.

    ``ber=1e-4`` on a 66-bit block corrupts roughly one message in 150 —
    a hundred million times the 802.3 objective — yet the filter keeps
    offsets bounded.  With the filter effectively disabled, corrupted
    counters propagate through max() and wreck synchronization.
    """
    result = ExperimentResult(name="ablation-bit-errors", params={"ber": ber, "seed": seed})
    for filtered in (True, False):
        sim = Simulator()
        config = DtpPortConfig(
            reject_threshold_ticks=8 if filtered else (1 << 50),
            # Fault detection would correctly quarantine the peer in the
            # unfiltered case; disable it to expose the raw failure mode.
            max_rejects_per_window=None,
        )
        net = DtpNetwork(
            sim,
            chain(2),
            RandomStreams(seed),
            config=config,
            ber=ber,
            skews={
                "n0": ConstantSkew(50.0),
                "n1": ConstantSkew(-50.0),
            },
        )
        net.start()
        sim.run_until(duration_fs // 4)
        key = "filtered" if filtered else "unfiltered"
        result.summary[f"worst_offset_ticks_{key}"] = worst_offset(net, duration_fs)
        result.summary[f"rejected_{key}"] = sum(
            port.stats.rejected_out_of_range for port in net.ports.values()
        )
    result.summary["filter_keeps_bound"] = (
        result.summary["worst_offset_ticks_filtered"] <= 8
    )
    result.summary["unfiltered_breaks"] = (
        result.summary["worst_offset_ticks_unfiltered"]
        > result.summary["worst_offset_ticks_filtered"]
    )
    return result


def run_asymmetry_ablation(
    asymmetry_ticks: int = 6,
    duration_fs: int = 4 * units.MS,
    seed: int = 14,
) -> ExperimentResult:
    """Asymmetric cables bias DTP's delay halving by half the asymmetry."""
    result = ExperimentResult(
        name="ablation-cable-asymmetry",
        params={"asymmetry_ticks": asymmetry_ticks, "seed": seed},
    )
    for label, asym_fs in (
        ("symmetric", 0),
        ("asymmetric", asymmetry_ticks * units.TICK_10G_FS),
    ):
        sim = Simulator()
        cable = Cable(length_m=10.0, asymmetry_fs=asym_fs)
        net = _two_node_net(sim, seed, cable=cable)
        net.start()
        sim.run_until(duration_fs // 4)
        result.summary[f"worst_offset_ticks_{label}"] = worst_offset(net, duration_fs)
    result.summary["asymmetry_costs_precision"] = (
        result.summary["worst_offset_ticks_asymmetric"]
        >= result.summary["worst_offset_ticks_symmetric"]
    )
    return result


def run_all_ablations(seed: int = 15) -> List[ExperimentResult]:
    """Run every ablation, each arm one seed after the last."""
    return [
        run_alpha_sweep(seed=seed),
        run_beacon_interval_sweep(seed=seed + 1),
        run_cdc_ablation(seed=seed + 2),
        run_bit_error_ablation(seed=seed + 3),
        run_asymmetry_ablation(seed=seed + 4),
    ]
