"""Parameter sweeps: maps of DTP precision across the design space.

These generate the tables a deployment engineer would want next to the
paper: worst offset as a function of (beacon interval x skew gap), cable
length (including non-integer-tick lengths), and BER.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..clocks.oscillator import ConstantSkew
from ..dtp.network import DtpNetwork
from ..dtp.port import DtpPortConfig
from ..network.link import Cable
from ..network.topology import Topology
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, worst_offset


def _pair_topology(cable: Cable = None) -> Topology:
    topology = Topology(name="sweep-pair")
    topology.add_host("a")
    topology.add_host("b")
    topology.add_link("a", "b", cable or Cable())
    return topology


def _measure_pair(
    beacon_interval: int,
    ppm_a: float,
    ppm_b: float,
    cable: Cable = None,
    ber: float = 0.0,
    duration_fs: int = 4 * units.MS,
    seed: int = 50,
) -> int:
    sim = Simulator()
    net = DtpNetwork(
        sim,
        _pair_topology(cable),
        RandomStreams(seed),
        config=DtpPortConfig(beacon_interval_ticks=beacon_interval),
        skews={"a": ConstantSkew(ppm_a), "b": ConstantSkew(ppm_b)},
        ber=ber,
    )
    net.start()
    sim.run_until(duration_fs // 4)
    return worst_offset(net, duration_fs)


def sweep_beacon_vs_skew(
    intervals: List[int] = (200, 1200, 4000),
    ppm_gaps: List[float] = (0.0, 50.0, 200.0),
    duration_fs: int = 4 * units.MS,
    seed: int = 51,
) -> ExperimentResult:
    """Worst offset over (beacon interval x oscillator gap).

    The gap is split symmetrically (+g/2, -g/2).  Every in-budget cell
    must stay within 4 ticks.
    """
    result = ExperimentResult(name="sweep-beacon-vs-skew", params={"seed": seed})
    matrix: Dict[Tuple[int, float], int] = {
        (interval, gap): _measure_pair(
            interval, gap / 2.0, -gap / 2.0, duration_fs=duration_fs, seed=seed
        )
        for interval in intervals
        for gap in ppm_gaps
    }
    result.summary["matrix"] = {
        f"interval={i},gap={g}ppm": worst for (i, g), worst in sorted(matrix.items())
    }
    result.summary["all_within_bound"] = all(v <= 4 for v in matrix.values())
    rows = ["interval \\ gap  " + "".join(f"{g:>8.0f}" for g in ppm_gaps)]
    for interval in intervals:
        cells = "".join(f"{matrix[(interval, g)]:>8d}" for g in ppm_gaps)
        rows.append(f"{interval:>14d}  {cells}")
    result.summary["table"] = rows
    return result


def sweep_cable_length(
    lengths_m: List[float] = (1.0, 5.0, 10.24, 33.3, 100.0, 333.3, 1000.0),
    duration_fs: int = 3 * units.MS,
    seed: int = 52,
) -> ExperimentResult:
    """Worst offset vs cable length, including non-integer-tick lengths.

    The bound is independent of length (propagation cancels in the OWD
    measurement); arbitrary lengths may cost one extra tick of
    quantization (see Cable's docstring).
    """
    result = ExperimentResult(name="sweep-cable-length", params={"seed": seed})
    by_length: Dict[float, int] = {
        length: _measure_pair(
            200, 100.0, -100.0, cable=Cable(length_m=length),
            duration_fs=duration_fs, seed=seed,
        )
        for length in lengths_m
    }
    result.summary["worst_offset_by_length_m"] = by_length
    result.summary["all_within_five_ticks"] = all(v <= 5 for v in by_length.values())
    result.summary["integer_tick_lengths_within_four"] = all(
        worst <= 4
        for length, worst in by_length.items()
        if (length * units.FIBER_DELAY_FS_PER_M) % units.TICK_10G_FS == 0
    )
    return result


def sweep_ber(
    bers: List[float] = (0.0, 1e-12, 1e-9, 1e-6, 1e-4),
    duration_fs: int = 4 * units.MS,
    seed: int = 53,
) -> ExperimentResult:
    """Worst offset vs bit error rate with the Section 3.2 filter on.

    1e-12 is the 802.3 objective; 1e-4 is eight orders of magnitude worse
    and the bound must still hold (corrupted messages are simply dropped).
    """
    result = ExperimentResult(name="sweep-ber", params={"seed": seed})
    by_ber: Dict[float, int] = {
        ber: _measure_pair(
            200, 100.0, -100.0, ber=ber, duration_fs=duration_fs, seed=seed
        )
        for ber in bers
    }
    result.summary["worst_offset_by_ber"] = {f"{b:.0e}": v for b, v in by_ber.items()}
    result.summary["all_within_bound"] = all(v <= 4 for v in by_ber.values())
    return result
