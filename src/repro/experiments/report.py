"""Automated reproduction report: run everything, emit markdown.

``repro report`` regenerates a condensed EXPERIMENTS.md-style summary
from live runs — the artifact-evaluation one-shot.
"""

from __future__ import annotations

from typing import List

from ..sim import units
from . import ablations, bounds, convergence, extensions, fig6_dtp, fig6_ptp
from . import fig7_daemon, hybrid_sync, table1, table2
from .fig6_dtp import Fig6DtpConfig
from .fig6_ptp import Fig6PtpConfig
from .fig7_daemon import Fig7Config


def generate_report(quick: bool = True) -> str:
    """Run the core experiment set and return a markdown report."""
    lines: List[str] = [
        "# DTP reproduction report (generated)",
        "",
        "| experiment | paper expectation | measured | verdict |",
        "|---|---|---|---|",
    ]

    def row(name: str, expectation: str, measured: str, ok: bool) -> None:
        verdict = "PASS" if ok else "FAIL"
        lines.append(f"| {name} | {expectation} | {measured} | {verdict} |")

    dtp_ms = 6 if quick else 20
    fig6a = fig6_dtp.run_fig6_dtp(
        Fig6DtpConfig(frame_name="mtu", duration_fs=dtp_ms * units.MS)
    )
    row(
        "Fig 6a (DTP, MTU load)",
        "offsets never exceed 4 ticks (25.6 ns)",
        f"worst {fig6a.summary['worst_logged_offset_ticks']} ticks",
        fig6a.summary["within_direct_bound"],
    )
    fig6b = fig6_dtp.run_fig6_dtp(
        Fig6DtpConfig(frame_name="jumbo", duration_fs=dtp_ms * units.MS)
    )
    row(
        "Fig 6b (DTP, jumbo load)",
        "same bound, beacon interval 1200",
        f"worst {fig6b.summary['worst_logged_offset_ticks']} ticks",
        fig6b.summary["within_direct_bound"],
    )

    ptp_seconds = 180 if quick else 600
    worst_by_load = {}
    for load in ("idle", "medium", "heavy"):
        result = fig6_ptp.run_fig6_ptp(
            Fig6PtpConfig(load=load, duration_fs=ptp_seconds * units.SEC)
        )
        worst_by_load[load] = result.summary["worst_offset_us"]
    row(
        "Fig 6d-f (PTP vs load)",
        "hundreds of ns -> tens of us -> hundreds of us",
        " / ".join(f"{worst_by_load[l]:.2f} us" for l in ("idle", "medium", "heavy")),
        worst_by_load["idle"] < 1.0 < worst_by_load["medium"] < worst_by_load["heavy"],
    )

    raw, smoothed = fig7_daemon.run_fig7(
        Fig7Config(duration_fs=(100 if quick else 400) * units.MS)
    )
    row(
        "Fig 7 (daemon)",
        "raw usually <= 16 ticks; smoothed <= 4",
        f"raw p50 {raw.summary['p50_abs_ticks']:.0f}, "
        f"smoothed p50 {smoothed.summary['p50_abs_ticks']:.1f}",
        raw.summary["p50_abs_ticks"] <= 16
        and smoothed.summary["p50_abs_ticks"] <= 4,
    )

    t1 = table1.run_table1(
        packet_protocol_duration_fs=(60 if quick else 180) * units.SEC,
        dtp_duration_fs=(2 if quick else 4) * units.MS,
    )
    row(
        "Table 1 (ordering)",
        "DTP < PTP < NTP precision",
        f"DTP {t1.summary['DTP']}, PTP {t1.summary['PTP']}, NTP {t1.summary['NTP']}",
        t1.summary["dtp_beats_ptp"] and t1.summary["ptp_beats_ntp"],
    )

    t2 = table2.run_table2(duration_fs=(1 if quick else 2) * units.MS)
    row(
        "Table 2 (speeds)",
        "4-tick bound at 1/10/40/100G",
        "all speeds verified",
        t2.summary["all_speeds_within_bound"],
    )

    hop = bounds.run_hop_scaling(
        bounds.BoundsConfig(duration_fs=(3 if quick else 6) * units.MS)
    )
    row(
        "4TD hop scaling",
        "worst offset <= 4D for D=1..6",
        str(hop.summary["per_hop_worst_ticks"]),
        hop.summary["all_within_bound"],
    )

    conv = convergence.run_dtp_convergence()
    row(
        "DTP convergence",
        "within ~2 beacon intervals",
        f"{conv.summary['time_in_beacon_intervals']:.1f} intervals",
        conv.summary["within_paper_claim"],
    )

    alpha = ablations.run_alpha_sweep(
        alphas=[0, 3], duration_fs=(3 if quick else 4) * units.MS
    )
    row(
        "alpha = 3 ablation",
        "no counter excess at alpha=3; excess below",
        f"excess(0)={alpha.summary['alpha0_excess']}, excess(3)=0",
        alpha.summary["alpha3_no_excess"] and alpha.summary["alpha0_excess"] > 0,
    )

    synce = extensions.run_synce_ablation(duration_fs=(3 if quick else 5) * units.MS)
    row(
        "SyncE extension",
        "offsets collapse toward CDC floor",
        f"plain {synce.summary['worst_offset_ticks_plain']}, "
        f"synce {synce.summary['worst_offset_ticks_synce']} ticks",
        synce.summary["synce_no_worse"],
    )

    hybrid = hybrid_sync.run_hybrid_comparison(
        ptp_duration_fs=(120 if quick else 200) * units.SEC,
        hybrid_duration_fs=(60 if quick else 100) * units.MS,
    )
    row(
        "Hybrid DTP-assisted PTP (5.2)",
        "external sync immune to load",
        f"{hybrid.summary['hybrid_worst_ns']} ns vs "
        f"{hybrid.summary['plain_ptp_worst_us']} us plain",
        hybrid.summary["hybrid_immune_to_load"],
    )

    lines.append("")
    lines.append("## Metrics-registry summary")
    lines.append("")
    lines.append(
        "Message accounting read back from the telemetry metrics registry "
        "(`dtp_messages_sent_total`), per Table 2 speed: one beacon per "
        "200 ticks per direction is the paper's cadence."
    )
    lines.append("")
    lines.append(
        "| speed | messages sent | beacons sent | beacons/s/dir | "
        "expected/s | verdict |"
    )
    lines.append("|---|---|---|---|---|---|")
    for speed, counters in t2.summary["message_counters"].items():
        verdict = "plausible" if counters["plausible"] else "OFF-CADENCE"
        lines.append(
            f"| {speed} | {counters['messages_sent']} "
            f"| {counters['beacons_sent']} "
            f"| {counters['beacon_rate_per_dir_per_s']} "
            f"| {counters['expected_beacon_rate_per_s']} "
            f"| {verdict} |"
        )

    lines.append("")
    lines.append(
        "All runs deterministic; see EXPERIMENTS.md for methodology and "
        "DESIGN.md for the substitution inventory."
    )
    return "\n".join(lines)
