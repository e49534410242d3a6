"""Tier-1: every paper claim of the claims table, at ``--quick``.

``repro.experiments.report.CLAIMS`` states each claim once; each
``test_claim_holds_at_quick`` case checks one row against the results
``repro <command> --quick`` produces (each command runs once per session:
``quick_run`` in conftest.py).  The named tests below predate the table:
they check the rows they used to assert by hand, and what each
experiment's output must look like beyond its claims.
"""

import pytest

from repro.experiments.cli import COMMANDS, Experiment, main
from repro.experiments.harness import histogram
from repro.experiments.report import CLAIMS, claimed_commands, generate_report


@pytest.mark.parametrize("key", [claim.key for claim in CLAIMS])
def test_claim_holds_at_quick(key, assert_claims):
    assert_claims(key)


def test_claims_table_names_commands_results_and_report_rows(quick_run):
    assert len({claim.key for claim in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        assert all(command in COMMANDS for command in claim.commands), claim.key
        produced = {name for command in claim.commands for name in quick_run(command)}
        assert set(claim.result.split()) <= produced, claim.key
    results = [r for name in claimed_commands() for r in quick_run(name).values()]
    rows = [
        line for line in generate_report(results).splitlines()
        if line.endswith(("| PASS |", "| FAIL |"))
    ]
    assert [row.split(" | ")[0] for row in rows] == [f"| {c.key}" for c in CLAIMS]


def test_report_plots_and_exports_its_results(quick_run, monkeypatch, capsys, tmp_path):
    series = 0
    for command in claimed_commands():
        results = list(quick_run(command).values())
        series += sum(1 for result in results for s in result.series if s.values)
        monkeypatch.setitem(
            COMMANDS, command, Experiment(lambda options, results=results: results)
        )
    assert main(["report", "--quick", "--plot", "--csv", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# DTP reproduction report (generated)")
    assert out.count("\nwrote ") == series
    assert out.count("+" + "-" * 72 + "+") == 2 * series
    assert len(list(tmp_path.glob("*.csv"))) == series


class TestFig6Dtp:
    def test_mtu_run_within_bound(self, quick_run, assert_claims):
        assert_claims("fig6a/direct-bound")
        assert quick_run("fig6a")["fig6-dtp-mtu"].params["beacon_interval_ticks"] == 193

    def test_jumbo_run_within_bound(self, quick_run, assert_claims):
        assert_claims("fig6b/direct-bound")
        result = quick_run("fig6b")["fig6-dtp-jumbo"]
        assert result.params["beacon_interval_ticks"] == 1130

    def test_fig6c_distributions_concentrated(self, quick_run, assert_claims):
        assert_claims("fig6c/pdf-within-4")
        result = quick_run("fig6c")["fig6c-dtp-distribution"]
        pdfs = {s.label: histogram(s.values, bin_width=1.0) for s in result.series}
        assert set(pdfs) == {"s3-s9", "s3-s10", "s3-s11", "s3-s0"}
        for pdf in pdfs.values():
            assert sum(pdf.values()) == pytest.approx(1.0)

    def test_true_offsets_tracked(self, assert_claims):
        assert_claims("fig6a/network-bound")


class TestFig6Ptp:
    def test_idle_sub_microsecond(self, assert_claims):
        assert_claims("fig6d/hundreds-of-ns")

    def test_heavy_load_degrades_by_orders_of_magnitude(self, assert_claims):
        assert_claims("fig6d+fig6f/orders-of-magnitude")

    def test_heavy_excludes_h8_by_default(self, quick_run):
        assert quick_run("fig6f")["fig6-ptp-heavy"].params["excluded"] == "h8"


class TestFig7:
    def test_raw_and_smoothed_match_paper_shape(self, assert_claims):
        assert_claims("fig7/raw-16", "fig7/smoothed-4", "fig7/smoothing-drops-spikes")


class TestTables:
    def test_table1_preserves_ordering(self, quick_run, assert_claims):
        assert_claims("table1/dtp-beats-ptp", "table1/ptp-beats-ntp", "table1/dtp-ns-scale")
        result = quick_run("table1")["table1-protocol-comparison"]
        assert len(result.summary["rows"]) == 4

    def test_table2_all_speeds_bound(self, assert_claims):
        assert_claims(
            "table2/all-speeds-bound", "table2/common-unit", "table2/beacon-cadence"
        )


class TestBounds:
    def test_hop_scaling_within_4td(self, assert_claims):
        assert_claims("bounds/hop-scaling-4td")

    def test_fat_tree_within_153_6_ns(self, quick_run, assert_claims):
        assert_claims("bounds/fat-tree-4td", "bounds/fat-tree-153.6ns")
        assert quick_run("bounds")["bounds-fat-tree-4"].params["diameter_hops"] == 6


class TestConvergence:
    def test_dtp_converges_within_beacon_intervals(self, assert_claims):
        assert_claims("convergence/dtp-converges", "convergence/dtp-beacon-intervals")

    def test_ptp_takes_longer_than_dtp(self, assert_claims):
        assert_claims("convergence/ptp-slower-than-dtp")


class TestAblations:
    def test_alpha_three_prevents_fast_counter(self, assert_claims):
        assert_claims("ablations/alpha3-no-excess", "ablations/alpha0-excess")

    def test_beacon_interval_budget(self, assert_claims):
        assert_claims("ablations/beacon-within-4", "ablations/beacon-degrades")

    def test_bit_error_filter(self, assert_claims):
        assert_claims("ablations/ber-filter-holds", "ablations/ber-unfiltered-breaks")

    def test_cdc_ablation(self, assert_claims):
        assert_claims("ablations/cdc-spread", "ablations/cdc-bound")

    def test_asymmetry_ablation(self, assert_claims):
        assert_claims("ablations/asymmetry-costs")
