"""Timeline reconstruction from EV_* records vs direct simulation sampling.

The tentpole claim: per-node counter series (and hence pair offsets) can be
rebuilt **purely from the trace** — EV_TX beacon anchors plus nominal-rate
extrapolation — and agree with ground truth sampled live from the
``DtpNetwork`` to within anchor quantization (2 ticks).  The hypothesis
test sweeps random chain depths, skews, and seeds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.network import DtpNetwork
from repro.insight import (
    CAUSE_BEACON,
    CAUSE_JOIN,
    reconstruct_timeline,
)
from repro.network.topology import chain
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry import Telemetry, TraceIndex
from repro.telemetry.events import EV_JUMP

#: Anchor quantization: each node's gc estimate rounds to the nearest
#: anchor tick, so a pair offset can be off by 1 tick per node.
RECONSTRUCTION_TOLERANCE_TICKS = 2

ppm = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def _traced_chain(hosts, ppms, seed, duration_fs, sample_interval_fs):
    """Run a traced chain, sampling ground-truth pair offsets live."""
    sim = Simulator()
    streams = RandomStreams(root_seed=seed)
    telemetry = Telemetry()
    skews = {f"n{i}": ConstantSkew(ppms[i % len(ppms)]) for i in range(hosts)}
    net = DtpNetwork(sim, chain(hosts), streams, skews=skews, telemetry=telemetry)
    net.start()

    pairs = [(f"n{i}", f"n{j}") for i in range(hosts) for j in range(i + 1, hosts)]
    truth = {pair: [] for pair in pairs}

    def _sample():
        if net.all_synchronized():
            for a, b in pairs:
                truth[(a, b)].append((sim.now, net.pair_offset(a, b)))
        sim.schedule(sample_interval_fs, _sample)

    sim.schedule(sample_interval_fs, _sample)
    sim.run_until(duration_fs)
    return net, telemetry, truth


def test_timeline_series_shapes():
    _net, telemetry, _truth = _traced_chain(
        3, (40.0, -40.0, 10.0), seed=7,
        duration_fs=400 * units.US, sample_interval_fs=50 * units.US,
    )
    index = TraceIndex.from_recorder(telemetry.tracer)
    timeline = reconstruct_timeline(index)
    assert sorted(timeline.ports) == [
        "n0->n1", "n1->n0", "n1->n2", "n2->n1",
    ]
    assert timeline.links() == [("n0", "n1"), ("n1", "n2")]
    for port in timeline.ports.values():
        assert port.measured_d() is not None
        assert port.beacon_rx_times == sorted(port.beacon_rx_times)
        gaps = port.beacon_intervals_fs()
        assert gaps
    for node in ("n0", "n1", "n2"):
        anchors = timeline.nodes[node].anchors
        assert anchors == sorted(anchors)
        assert len(anchors) > 100


def test_jump_causes_classified():
    _net, telemetry, _truth = _traced_chain(
        3, (100.0, -100.0, 0.0), seed=11,
        duration_fs=400 * units.US, sample_interval_fs=100 * units.US,
    )
    index = TraceIndex.from_recorder(telemetry.tracer)
    timeline = reconstruct_timeline(index)
    causes = {
        cause
        for port in timeline.ports.values()
        for _t, _d, _a, cause in port.jumps
    }
    assert causes  # ±100 ppm must produce T4 jumps
    assert causes <= {CAUSE_BEACON, CAUSE_JOIN}
    total_jumps = sum(len(p.jumps) for p in timeline.ports.values())
    assert total_jumps == len(index.of_kind(EV_JUMP))


def test_gc_extrapolation_matches_anchor_exactly():
    _net, telemetry, _truth = _traced_chain(
        2, (0.0, 0.0), seed=3,
        duration_fs=300 * units.US, sample_interval_fs=100 * units.US,
    )
    timeline = reconstruct_timeline(TraceIndex.from_recorder(telemetry.tracer))
    anchors = timeline.nodes["n0"].anchors
    t, low = anchors[len(anchors) // 2]
    assert timeline.gc_low_at("n0", t) == low
    # One nominal period later the counter advanced by exactly increment.
    assert timeline.gc_low_at("n0", t + timeline.period_fs) == low + 1
    # Extrapolation cap respected.
    far = anchors[-1][0] + 10**12
    assert timeline.gc_low_at("n0", far, max_extrapolation_fs=10**6) is None
    assert timeline.gc_low_at("missing", t) is None


def test_offset_series_is_pair_offset_at_on_a_large_grid():
    """``offset_series`` is ``pair_offset_at`` per grid point, minus the points
    the extrapolation cap drops, whatever the grid's length."""
    _net, telemetry, _truth = _traced_chain(
        3, (40.0, -60.0, 90.0), seed=5,
        duration_fs=300 * units.US, sample_interval_fs=100 * units.US,
    )
    timeline = reconstruct_timeline(TraceIndex.from_recorder(telemetry.tracer))
    cap = 4 * 200 * timeline.period_fs
    # Runs off both ends of the anchors, so the cap drops some points.
    grid = list(range(0, 400 * units.US, 3 * units.US))
    assert len(grid) > 32
    for a, b in (("n0", "n2"), ("n1", "n0"), ("n0", "missing")):
        expected = [
            (t, offset)
            for t in grid
            if (offset := timeline.pair_offset_at(a, b, t, cap)) is not None
        ]
        assert timeline.offset_series(a, b, grid, cap) == expected
        assert len(expected) < len(grid)


# Derandomized like the faultlab property tests: CI must be reproducible.
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    hosts=st.integers(min_value=2, max_value=4),
    ppms=st.tuples(ppm, ppm, ppm, ppm),
    seed=st.integers(0, 2**20),
)
def test_reconstructed_offsets_match_direct_sampling(hosts, ppms, seed):
    """Satellite: trace-rebuilt offset series vs live DtpNetwork sampling."""
    _net, telemetry, truth = _traced_chain(
        hosts, ppms, seed,
        duration_fs=500 * units.US, sample_interval_fs=40 * units.US,
    )
    index = TraceIndex.from_recorder(telemetry.tracer)
    timeline = reconstruct_timeline(index)
    beacon_interval_fs = 200 * timeline.period_fs
    compared = 0
    for (a, b), samples in truth.items():
        for t, true_offset in samples:
            rebuilt = timeline.pair_offset_at(
                a, b, t, max_extrapolation_fs=4 * beacon_interval_fs
            )
            if rebuilt is None:
                continue
            compared += 1
            assert abs(rebuilt - true_offset) <= RECONSTRUCTION_TOLERANCE_TICKS, (
                f"pair {a}-{b} at t={t}: trace says {rebuilt}, "
                f"simulation says {true_offset}"
            )
    assert compared > 0
