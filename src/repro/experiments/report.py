"""The paper's claims, stated once, and ``repro report`` over them.

Each :data:`CLAIMS` row names the ``repro <command>`` whose run produces a
claim, the result it reads, the paper's wording and a predicate over that
result's summary.  ``repro report``, the tier-1 claims test and
``benchmarks/test_claims.py`` all check these rows, at the sizes the
command itself runs (``--quick`` or full).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple


class Claim(NamedTuple):
    """One row.  A claim that compares runs names its commands and results
    space-separated, and its predicate takes one summary per result."""

    command: str
    name: str
    result: str
    paper: str
    holds: Callable[..., bool]

    @property
    def commands(self) -> List[str]:
        return self.command.split()

    @property
    def key(self) -> str:
        return f"{'+'.join(self.commands)}/{self.name}"

    def check(self, summaries: Dict[str, dict]) -> Tuple[bool, str]:
        """Whether the claim holds over ``summaries`` (by result name), and
        the summary values its predicate read."""
        reads = {name: _Reads(summaries[name]) for name in self.result.split()}
        holds = bool(self.holds(*reads.values()))
        return holds, " / ".join(
            f"{name}: " + ", ".join(f"{k} = {_format(v)}" for k, v in read.read.items())
            for name, read in reads.items()
        )


class _Reads(dict):
    """A summary that records the keys a predicate reads."""

    def __init__(self, summary: dict) -> None:
        super().__init__(summary)
        self.read: Dict[str, object] = {}

    def __getitem__(self, key):
        value = self.read[key] = super().__getitem__(key)
        return value


def _format(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _flag(key: str) -> Callable[[dict], bool]:
    return lambda summary: summary[key]


def _zero_packets(summary: dict) -> bool:
    """DTP puts no packet on the wire yet beacons at the 200-tick rate on
    both directions of every link (80 % of it, for start-up); the packet
    protocols it is compared with do send packets."""
    from ..phy.specs import PHY_10G
    from .table2 import expected_dtp_message_rate

    beacons = 2 * expected_dtp_message_rate(200, PHY_10G.period_fs)
    return (
        summary["dtp_packets"] == 0
        and summary["dtp_messages_per_link_per_s"] > 0.8 * beacons
        and summary["ptp_packets_per_s"] > 0
        and summary["ntp_packets_per_s"] > 0
    )


CLAIMS: List[Claim] = [
    # Figures 6a-6c: DTP on the twelve-node testbed (Section 6.2).
    Claim("fig6a", "direct-bound", "fig6-dtp-mtu",
          "direct peers never more than 4 ticks (25.6 ns) apart, MTU load",
          lambda s: s["within_direct_bound"] and s["worst_logged_offset_ns"] <= 25.6),
    Claim("fig6a", "network-bound", "fig6-dtp-mtu", "any two nodes within 4TD",
          lambda s: s["true_max_offset_ticks"] <= s["bound_ticks_network"]),
    Claim("fig6b", "direct-bound", "fig6-dtp-jumbo",
          "the same bound at beacon interval 1200, jumbo load", _flag("within_direct_bound")),
    Claim("fig6c", "pdf-within-4", "fig6c-dtp-distribution",
          "offset PDFs at S3: no mass outside +-4 ticks",
          lambda s: s["worst_logged_offset_ticks"] <= 4),
    # Figures 6d-6f: PTP under load.
    Claim("fig6d", "hundreds-of-ns", "fig6-ptp-idle", "PTP idle: hundreds of ns",
          lambda s: s["worst_offset_us"] < 1.0),
    Claim("fig6e", "tens-of-us", "fig6-ptp-medium", "PTP at medium load: tens of us",
          lambda s: 2.0 < s["worst_offset_us"] < 100.0),
    Claim("fig6f", "hundreds-of-us", "fig6-ptp-heavy", "PTP at heavy load: hundreds of us",
          lambda s: s["worst_offset_us"] > 50.0),
    Claim("fig6d fig6e fig6f", "degrades-with-load",
          "fig6-ptp-idle fig6-ptp-medium fig6-ptp-heavy",
          "hundreds of ns -> tens of us -> hundreds of us",
          lambda idle, medium, heavy: idle["worst_offset_us"] < 1.0
          < medium["worst_offset_us"] < heavy["worst_offset_us"]),
    Claim("fig6d fig6f", "orders-of-magnitude", "fig6-ptp-idle fig6-ptp-heavy",
          "heavy load degrades PTP by orders of magnitude (> 20x idle)",
          lambda idle, heavy: heavy["worst_offset_us"] > 20 * idle["worst_offset_us"]),
    # Figure 7: the DTP daemon, raw and smoothed.
    Claim("fig7", "raw-16", "fig7a-daemon-raw", "raw usually within 16 ticks (102.4 ns)",
          lambda s: s["p50_abs_ticks"] <= 16),
    Claim("fig7", "smoothed-4", "fig7b-daemon-smoothed",
          "smoothed (window 10) usually within 4 ticks (25.6 ns)",
          lambda s: s["p50_abs_ticks"] <= 4),
    Claim("fig7", "smoothing-drops-spikes", "fig7a-daemon-raw fig7b-daemon-smoothed",
          "smoothing removes the PCIe spikes",
          lambda raw, smoothed: smoothed["p95_abs_ticks"] <= raw["max_abs_ticks"]),
    # Tables 1 and 2.
    Claim("table1", "dtp-beats-ptp", "table1-protocol-comparison",
          "DTP is more precise than PTP", _flag("dtp_beats_ptp")),
    Claim("table1", "ptp-beats-ntp", "table1-protocol-comparison",
          "PTP is more precise than NTP", _flag("ptp_beats_ntp")),
    Claim("table1", "dtp-ns-scale", "table1-protocol-comparison",
          "DTP precision is nanosecond-scale", _flag("dtp_ns_scale")),
    Claim("table1", "zero-packets", "table1-protocol-comparison",
          "DTP adds zero packets while sending hundreds of thousands of"
          " messages per link per second; PTP and NTP send packets", _zero_packets),
    Claim("table2", "all-speeds-bound", "table2-phy-speeds",
          "the 4-tick bound at 1/10/40/100G", _flag("all_speeds_within_bound")),
    Claim("table2", "common-unit", "table2-phy-speeds",
          "counter increments in whole 0.32 ns units", _flag("increments_common_unit")),
    Claim("table2", "beacon-cadence", "table2-phy-speeds",
          "one beacon per 200 ticks per direction", _flag("all_message_rates_plausible")),
    # Section 3.3: the 4TD bound.
    Claim("bounds", "hop-scaling-4td", "bounds-hop-scaling",
          "worst offset <= 4D ticks for D = 1..6 hops", _flag("all_within_bound")),
    Claim("bounds", "fat-tree-4td", "bounds-fat-tree-4",
          "a six-hop fat-tree within 4TD", _flag("within_bound")),
    Claim("bounds", "fat-tree-153.6ns", "bounds-fat-tree-4",
          "4TD at D = 6 is 153.6 ns", lambda s: abs(s["bound_ns"] - 153.6) < 1e-9),
    # Section 6.3, takeaway 5: convergence.
    Claim("convergence", "dtp-converges", "convergence-dtp",
          "a joining DTP node synchronizes", _flag("converged")),
    Claim("convergence", "dtp-beacon-intervals", "convergence-dtp",
          "within ~2 beacon intervals (8 with INIT + JOIN)", _flag("within_paper_claim")),
    Claim("convergence", "ptp-seconds", "convergence-ptp",
          "PTP takes (many) seconds to reach < 1 us",
          lambda s: s["time_to_stay_under_threshold_s"] >= 1.0),
    Claim("convergence", "ptp-slower-than-dtp", "convergence-dtp convergence-ptp",
          "PTP converges > 100x slower than DTP",
          lambda dtp, ptp: ptp["time_to_stay_under_threshold_s"]
          > 100 * dtp["time_to_sync_us"] / 1e6),
    # Ablations of Sections 3.2-3.3's design choices.
    Claim("ablations", "alpha3-no-excess", "ablation-alpha",
          "alpha = 3: no counter excess", _flag("alpha3_no_excess")),
    Claim("ablations", "alpha0-excess", "ablation-alpha",
          "alpha = 0: the counter outruns the fastest clock",
          lambda s: s["alpha0_excess"] > 0),
    Claim("ablations", "beacon-within-4", "ablation-beacon-interval",
          "beacon intervals up to 4000 hold 4 ticks", _flag("within_4_up_to_4000")),
    Claim("ablations", "beacon-degrades", "ablation-beacon-interval",
          "beyond 5000 ticks it degrades", _flag("degrades_beyond_5000")),
    Claim("ablations", "cdc-spread", "ablation-cdc",
          "CDC FIFO off: the logged spread shrinks", _flag("cdc_off_reduces_spread")),
    Claim("ablations", "cdc-bound", "ablation-cdc",
          "CDC FIFO on or off: within 4 ticks", _flag("both_within_bound")),
    Claim("ablations", "ber-filter-holds", "ablation-bit-errors",
          "BER 1e-4: the filter holds the bound", _flag("filter_keeps_bound")),
    Claim("ablations", "ber-unfiltered-breaks", "ablation-bit-errors",
          "BER 1e-4: unfiltered, the bound breaks", _flag("unfiltered_breaks")),
    Claim("ablations", "asymmetry-costs", "ablation-cable-asymmetry",
          "cable asymmetry costs precision", _flag("asymmetry_costs_precision")),
    # Extensions: claims the paper makes in prose (Sections 8, 5.4, 2.4.2).
    Claim("extensions", "synce-no-worse", "extension-synce",
          "SyncE syntonization tightens DTP", _flag("synce_no_worse")),
    Claim("extensions", "synce-within-2", "extension-synce",
          "a syntonized pair within 2 ticks", _flag("synce_within_two_ticks")),
    Claim("extensions", "plain-follows-runaway", "extension-spanning-tree",
          "plain DTP follows a runaway oscillator", _flag("plain_follows_runaway")),
    Claim("extensions", "tree-holds-rate", "extension-spanning-tree",
          "a spanning tree holds the master's rate", _flag("tree_holds_master_rate")),
    Claim("extensions", "tree-within-8", "extension-spanning-tree",
          "the tree keeps offsets within 8 ticks",
          lambda s: s["worst_offset_ticks_tree"] <= 8),
    Claim("extensions", "cascade-grows", "extension-boundary-cascade",
          "boundary-clock errors grow with depth", _flag("cascade_grows")),
    # MTIE masks, DTP-assisted PTP (Section 5.2), design-space sweeps.
    Claim("stability", "dtp-mtie-flat", "stability-mtie-adev",
          "DTP MTIE flat under 4T", _flag("dtp_mtie_flat_under_bound")),
    Claim("stability", "ptp-mtie-above", "stability-mtie-adev",
          "loaded PTP MTIE above DTP's bound", _flag("ptp_mtie_exceeds_dtp_bound")),
    Claim("hybrid", "immune-to-load", "hybrid-dtp-assisted-ptp",
          "DTP-assisted external sync is immune to load", _flag("hybrid_immune_to_load")),
    Claim("hybrid", "over-50x", "hybrid-dtp-assisted-ptp",
          "> 50x better than plain PTP under load", lambda s: s["improvement_factor"] > 50),
    Claim("sweeps", "beacon-skew-within-4", "sweep-beacon-vs-skew",
          "every interval x skew cell within 4 ticks", _flag("all_within_bound")),
    Claim("sweeps", "cable-within-5", "sweep-cable-length",
          "any cable length within 5 ticks", _flag("all_within_five_ticks")),
    Claim("sweeps", "integer-cable-within-4", "sweep-cable-length",
          "integer-tick cables within 4 ticks", _flag("integer_tick_lengths_within_four")),
    Claim("sweeps", "ber-within-4", "sweep-ber",
          "BER up to 1e-4 within 4 ticks", _flag("all_within_bound")),
]


def claimed_commands() -> List[str]:
    """Each command the table names, once, in table order."""
    return list(dict.fromkeys(name for claim in CLAIMS for name in claim.commands))


def generate_report(results) -> str:
    """The markdown report over the results of :func:`claimed_commands`."""
    summaries = {result.name: result.summary for result in results}
    lines = [
        "# DTP reproduction report (generated)",
        "",
        "| claim | paper | measured | verdict |",
        "|---|---|---|---|",
    ]
    for claim in CLAIMS:
        holds, measured = claim.check(summaries)
        verdict = "PASS" if holds else "FAIL"
        lines.append(f"| {claim.key} | {claim.paper} | {measured} | {verdict} |")
    lines += [
        "",
        "## Metrics-registry summary",
        "",
        "Message accounting read back from the telemetry metrics registry "
        "(`dtp_messages_sent_total`), per Table 2 speed: one beacon per "
        "200 ticks per direction is the paper's cadence.",
        "",
        "| speed | messages sent | beacons sent | beacons/s/dir | expected/s | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for speed, counters in summaries["table2-phy-speeds"]["message_counters"].items():
        lines.append(
            f"| {speed} | {counters['messages_sent']} | {counters['beacons_sent']} "
            f"| {counters['beacon_rate_per_dir_per_s']} "
            f"| {counters['expected_beacon_rate_per_s']} "
            f"| {'plausible' if counters['plausible'] else 'OFF-CADENCE'} |"
        )
    lines += [
        "",
        "All runs deterministic; see EXPERIMENTS.md for methodology and "
        "DESIGN.md for the substitution inventory.",
    ]
    return "\n".join(lines)
