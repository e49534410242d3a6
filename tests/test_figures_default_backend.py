"""Every figure runs on the default backend and equals the scalar oracle.

The experiment modules build their ``DtpNetwork`` by hand and pass no
``backend``, so they take ``dtp.network.DEFAULT_BACKEND``.  Each entry
point below is run twice at smoke size — as shipped, and with that one
literal patched to ``"scalar"`` — and must render the same text over the
same samples; a spy on the coordinator then shows the default run really left the scalar path:
every network either promoted a direction, or every one of its ports
names the refusal that kept it there.
"""

import pytest

from repro import fastpath
from repro.dtp import network as dtp_network
from repro.experiments import (
    ablations,
    bounds,
    convergence,
    extensions,
    fig6_dtp,
    fig7_daemon,
    hybrid_sync,
    stability,
    sweeps,
    table1,
    table2,
)
from repro.experiments.fig6_dtp import Fig6DtpConfig
from repro.fastpath import direction_ineligible_reason
from repro.sim import units

MS, SEC = units.MS, units.SEC
BER = "bit-error injection active"

#: id -> (entry point at the smallest size its smoke test uses, the
#: refusals of its networks that promote nothing — none for most).
FIGURES = {
    "fig6a-mtu": (
        lambda: fig6_dtp.run_fig6_dtp(Fig6DtpConfig(duration_fs=3 * MS, warmup_fs=MS)),
        set(),
    ),
    "fig6b-jumbo": (
        lambda: fig6_dtp.run_fig6_dtp(
            Fig6DtpConfig(frame_name="jumbo", duration_fs=4 * MS, warmup_fs=MS)
        ),
        set(),
    ),
    "fig6c": (
        lambda: fig6_dtp.run_fig6c(
            Fig6DtpConfig(frame_name="jumbo", duration_fs=6 * MS, warmup_fs=MS)
        ),
        set(),
    ),
    "fig7": (
        lambda: fig7_daemon.run_fig7(fig7_daemon.Fig7Config(duration_fs=60 * MS)),
        set(),
    ),
    "table1": (
        lambda: table1.run_table1(
            packet_protocol_duration_fs=40 * SEC, dtp_duration_fs=MS
        ),
        set(),
    ),
    "table2": (lambda: table2.run_table2(duration_fs=MS), set()),
    "hop-scaling": (
        lambda: bounds.run_hop_scaling(
            bounds.BoundsConfig(max_hops=4, duration_fs=3 * MS, warmup_fs=MS)
        ),
        set(),
    ),
    "fat-tree": (lambda: bounds.run_fat_tree(duration_fs=2 * MS, warmup_fs=MS), set()),
    "convergence": (convergence.run_dtp_convergence, set()),
    # Both BER arms inject from t=0; the CDC-off arm disables its FIFOs.
    "ablations": (ablations.run_all_ablations, {BER, "non-standard CDC FIFO"}),
    "synce": (lambda: extensions.run_synce_ablation(duration_fs=3 * MS), set()),
    # The tree arm swaps every local clock for spanning_tree's _InertClock.
    "spanning-tree": (
        lambda: extensions.run_spanning_tree_comparison(duration_fs=4 * MS),
        {"non-standard local clock"},
    ),
    "stability": (
        lambda: stability.run_stability_comparison(
            dtp_duration_fs=4 * MS, ptp_duration_fs=150 * SEC
        ),
        set(),
    ),
    "hybrid": (
        lambda: hybrid_sync.run_hybrid_comparison(
            ptp_duration_fs=120 * SEC, hybrid_duration_fs=60 * MS
        ),
        set(),
    ),
    "sweep-beacon-vs-skew": (
        lambda: sweeps.sweep_beacon_vs_skew(
            intervals=[200, 4000], ppm_gaps=[0.0, 200.0], duration_fs=3 * MS
        ),
        set(),
    ),
    "sweep-cable-length": (
        lambda: sweeps.sweep_cable_length(
            lengths_m=[10.24, 33.3, 1000.0], duration_fs=2 * MS
        ),
        set(),
    ),
    "sweep-ber": (lambda: sweeps.sweep_ber(bers=[0.0, 1e-6], duration_fs=3 * MS), {BER}),
}


def _rendered(out):
    """What an entry point returned, comparable: the report text and,
    beyond what it summarises, every sample of every series."""
    if hasattr(out, "render"):
        series = [(s.label, s.times_fs, s.values) for s in out.series]
        return out.render(), series
    if isinstance(out, (list, tuple)):
        return tuple(_rendered(item) for item in out)
    return repr(out)


@pytest.mark.parametrize("figure", FIGURES)
def test_figure_on_the_default_backend_equals_the_scalar_oracle(figure, monkeypatch):
    run, expected_refusals = FIGURES[figure]
    networks = []
    build = dtp_network.DtpNetwork.__init__

    def spying_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        networks.append(self)

    class SpyCoordinator(fastpath.FastpathCoordinator):
        built = []

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.built.append(self)

    monkeypatch.setattr(dtp_network.DtpNetwork, "__init__", spying_build)
    monkeypatch.setattr(fastpath, "FastpathCoordinator", SpyCoordinator)
    default = _rendered(run())

    assert networks and all(net.backend == "batched" for net in networks)
    assert sum(c.promotions for c in SpyCoordinator.built) >= 1
    refusals = set()
    for net in networks:
        if net.fastpath is None or net.fastpath.promotions == 0:
            reasons = {direction_ineligible_reason(port) for port in net.ports.values()}
            assert None not in reasons, "a network that promotes nothing says why"
            refusals |= reasons
    assert refusals == expected_refusals

    scalar_networks = len(networks)
    monkeypatch.setattr(dtp_network, "DEFAULT_BACKEND", "scalar")
    assert _rendered(run()) == default
    oracle = networks[scalar_networks:]
    assert len(oracle) == scalar_networks
    assert all(net.backend == "scalar" and net.fastpath is None for net in oracle)
