"""Clock-stability analysis: MTIE/ADEV of DTP vs PTP (our extension).

The paper argues DTP's bounded offset makes it qualitatively different
from PTP's unbounded drift under load.  The telecom way to state that is
through **MTIE masks**: DTP's maximum time interval error is flat (the
4TD bound) at every observation window, while loaded PTP's MTIE grows
with window length as queueing noise wanders the servo around.
"""

from __future__ import annotations


from ..dtp.network import DtpNetwork
from ..metrics import allan_deviation_curve, mtie_curve
from ..network.topology import chain, star
from ..ptp.network import PtpConfig, PtpDeployment
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, TimeSeries, steps

#: DTP's offset is read every 20 us; the MTIE and ADEV curves take it as
#: their ``tau0``.
DTP_SAMPLE_INTERVAL_FS = 20 * units.US


def dtp_offset_series(
    duration_fs: int = 8 * units.MS,
    seed: int = 40,
) -> TimeSeries:
    """Offset (fs) between two directly connected DTP nodes over time."""
    sim = Simulator()
    net = DtpNetwork(sim, chain(2), RandomStreams(seed))
    net.start()
    sim.run_until(duration_fs // 4)
    series = TimeSeries(label="dtp_offset_fs")
    for t in steps(sim, DTP_SAMPLE_INTERVAL_FS, duration_fs):
        series.append(t, net.pair_offset("n0", "n1", t) * units.TICK_10G_FS)
    return series


def ptp_offset_series(
    load: str = "heavy",
    duration_fs: int = 400 * units.SEC,
    seed: int = 41,
) -> TimeSeries:
    """True offset (fs) of one loaded PTP slave over time."""
    sim = Simulator()
    deployment = PtpDeployment(
        sim, star(4), RandomStreams(seed), master="h0", config=PtpConfig()
    )
    deployment.apply_load(load)
    deployment.start()
    series = TimeSeries(label=f"ptp_{load}_offset_fs")
    warmup = duration_fs // 4
    for t in steps(sim, units.SEC, duration_fs):
        if t > warmup:
            series.append(t, deployment.true_offset_fs("h1", t))
    return series


def run_stability_comparison(
    dtp_duration_fs: int = 8 * units.MS,
    ptp_duration_fs: int = 400 * units.SEC,
    seed: int = 42,
) -> ExperimentResult:
    """MTIE curves for DTP and loaded PTP; the masks tell the story."""
    result = ExperimentResult(name="stability-mtie-adev", params={"seed": seed})
    dtp = dtp_offset_series(duration_fs=dtp_duration_fs, seed=seed)
    ptp = ptp_offset_series(duration_fs=ptp_duration_fs, seed=seed + 1)
    result.series = [dtp, ptp]

    tau0 = DTP_SAMPLE_INTERVAL_FS / units.SEC
    dtp_mtie = mtie_curve([v * 1e-15 for v in dtp.values], tau0=tau0)
    ptp_mtie = mtie_curve([v * 1e-15 for v in ptp.values], tau0=1.0)
    result.summary["dtp_mtie_ns"] = {
        round(tau, 6): round(v * 1e9, 2) for tau, v in dtp_mtie.items()
    }
    result.summary["ptp_mtie_ns"] = {
        round(tau, 1): round(v * 1e9, 1) for tau, v in ptp_mtie.items()
    }
    # DTP's MTIE is flat and bounded by 4T at every window.
    result.summary["dtp_mtie_flat_under_bound"] = all(
        v * 1e9 <= 4 * 6.4 for v in dtp_mtie.values()
    )
    # PTP's MTIE at its longest window dwarfs DTP's bound.
    result.summary["ptp_mtie_exceeds_dtp_bound"] = (
        max(ptp_mtie.values()) * 1e9 > 10 * 4 * 6.4
    )

    dtp_adev = allan_deviation_curve([v * 1e-15 for v in dtp.values], tau0=tau0)
    result.summary["dtp_adev_tau0"] = f"{min(dtp_adev.values()):.3e}"
    return result
