"""Unit tests for the DTP software daemon (paper Section 5.1, Figure 7)."""

import random

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.clocks.tsc import TscCounter
from repro.dtp.daemon import (
    DtpDaemon,
    PcieModel,
    _endpoint_rate,
    _extrapolate,
    _windowed_anchor,
    moving_average,
)
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.network.topology import chain
from repro.sim import units


@pytest.fixture
def synced_net(sim, streams):
    net = DtpNetwork(
        sim, chain(2), streams,
        config=DtpPortConfig(beacon_interval_ticks=1200),
    )
    net.start()
    sim.run_until(units.MS)
    return net


def make_daemon(sim, net, streams, **kwargs):
    tsc = TscCounter(skew=ConstantSkew(-5.0))
    return DtpDaemon(
        sim, net.devices["n0"], tsc, streams.stream("daemon"), **kwargs
    )


class TestSampling:
    def test_reads_accumulate(self, sim, streams, synced_net):
        daemon = make_daemon(sim, synced_net, streams, sample_interval_fs=units.MS)
        daemon.start()
        sim.run_until(11 * units.MS)
        assert daemon.reads >= 9

    def test_stop_halts_reads(self, sim, streams, synced_net):
        daemon = make_daemon(sim, synced_net, streams, sample_interval_fs=units.MS)
        daemon.start()
        sim.run_until(5 * units.MS)
        daemon.stop()
        count = daemon.reads
        sim.run_until(10 * units.MS)
        assert daemon.reads <= count + 1  # at most one in-flight completes

    def test_get_counter_before_samples_raises(self, sim, streams, synced_net):
        daemon = make_daemon(sim, synced_net, streams)
        with pytest.raises(RuntimeError):
            daemon.get_dtp_counter(sim.now)

    def test_start_is_idempotent(self, sim, streams, synced_net):
        daemon = make_daemon(sim, synced_net, streams, sample_interval_fs=units.MS)
        daemon.start()
        daemon.start()
        sim.run_until(3 * units.MS)
        assert daemon.reads <= 4


class TestSampleTime:
    def test_samples_carry_simulated_clock_time(self, sim, streams, synced_net):
        """Regression: DaemonSample.time_fs is the simulated-clock midpoint
        of the read, not a default.  Before the fix the field did not
        exist and consumers had to infer sample times from deque
        positions, which breaks whenever a read is skipped or delayed."""
        daemon = make_daemon(sim, synced_net, streams, sample_interval_fs=units.MS)
        daemon.start()
        sim.run_until(8 * units.MS)
        assert daemon.samples
        for sample in daemon.samples:
            assert sample.time_fs == (sample.issued_fs + sample.completed_fs) // 2
            assert sample.issued_fs <= sample.time_fs <= sample.completed_fs

    def test_sample_times_strictly_increase(self, sim, streams, synced_net):
        daemon = make_daemon(sim, synced_net, streams, sample_interval_fs=units.MS)
        daemon.start()
        sim.run_until(10 * units.MS)
        times = [s.time_fs for s in daemon.samples]
        assert times == sorted(times)
        assert len(set(times)) == len(times)


class TestAccuracy:
    def test_estimate_tracks_truth_within_figure7a(self, sim, streams, synced_net):
        daemon = make_daemon(sim, synced_net, streams, sample_interval_fs=units.MS)
        daemon.start()
        sim.run_until(6 * units.MS)
        offsets = []
        t = sim.now
        for _ in range(200):
            t += 1013 * units.US // 1000 * 997  # ~1 ms, co-prime-ish
            sim.run_until(t)
            truth = synced_net.devices["n0"].global_counter(t)
            offsets.append(truth - daemon.get_dtp_counter(t))
        p50 = sorted(abs(o) for o in offsets)[len(offsets) // 2]
        assert p50 <= 16  # "usually better than 16 ticks" (Figure 7a)

    def test_frequency_ratio_estimated(self, sim, streams, synced_net):
        daemon = make_daemon(sim, synced_net, streams, sample_interval_fs=units.MS)
        daemon.start()
        sim.run_until(20 * units.MS)
        # DTP ticks per TSC cycle: 156.25 MHz / 2.9 GHz ~ 0.0539.
        assert daemon.estimated_frequency_ratio() == pytest.approx(0.0539, rel=0.01)

    def test_daemon_smoothing_reduces_spread(self, sim, streams, synced_net):
        daemon = make_daemon(
            sim, synced_net, streams, sample_interval_fs=units.MS,
        )
        daemon.start()
        sim.run_until(15 * units.MS)
        device = synced_net.devices["n0"]

        def spread(window):
            daemon.smoothing_window = window
            values = []
            t = sim.now
            for _ in range(150):
                t += units.MS
                sim.run_until(t)
                values.append(device.global_counter(t) - daemon.get_dtp_counter(t))
            ordered = sorted(abs(v) for v in values)
            return ordered[int(len(ordered) * 0.95)]

        raw = spread(1)
        smoothed = spread(8)
        assert smoothed <= raw + 1


class TestPcieModel:
    def test_latency_in_plausible_range(self, streams):
        model = PcieModel()
        rng = streams.stream("pcie")
        samples = [model.sample_one_way(rng) for _ in range(1000)]
        assert min(samples) >= model.base_fs
        assert max(samples) < 10 * units.US

    def test_spikes_occur(self, streams):
        model = PcieModel(spike_probability=0.5)
        rng = streams.stream("pcie2")
        samples = [model.sample_one_way(rng) for _ in range(200)]
        spiky = sum(1 for s in samples if s > model.base_fs + model.jitter_fs)
        assert spiky > 50


class TestMovingAverage:
    def test_window_one_is_identity(self):
        values = [3, 1, 4, 1, 5]
        assert moving_average(values, 1) == [3.0, 1.0, 4.0, 1.0, 5.0]

    def test_window_smooths_spike(self):
        values = [0] * 10 + [100] + [0] * 10
        smoothed = moving_average(values, 10)
        assert max(smoothed) == pytest.approx(10.0)

    def test_warmup_uses_partial_window(self):
        assert moving_average([4, 8], 4) == [4.0, 6.0]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            moving_average([1], 0)


def _old_daemon_estimate(samples, window, x):
    """The DtpDaemon formulas exactly as they read inline, before the
    interpolation math became three helper functions."""
    first_x, first_y = samples[0]
    last_x, last_y = samples[-1]
    dx = last_x - first_x
    ratio = None if dx <= 0 else (last_y - first_y) / dx
    if ratio is None:
        ratio = 0.0
    window = min(window, len(samples))
    recent = samples[-window:]
    anchor_x = sum(s[0] for s in recent) / window
    anchor_y = sum(s[1] for s in recent) / window
    return anchor_y + (x - anchor_x) * ratio


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("window", [1, 4, 8])
def test_interp_matches_verbatim_daemon_math(seed, window):
    rng = random.Random(seed)
    samples = []
    x = 0
    for _ in range(40):
        x += rng.randint(1, 10**9)
        samples.append((x, rng.uniform(-1e9, 1e9)))
        query = x + rng.randint(0, 10**9)
        rate = _endpoint_rate(
            samples[0][0], samples[0][1], samples[-1][0], samples[-1][1]
        )
        anchor_x, anchor_y = _windowed_anchor(
            [s[0] for s in samples], [s[1] for s in samples], window
        )
        got = _extrapolate(anchor_x, anchor_y, rate if rate is not None else 0.0, query)
        # `==`, not isclose: identical float op order is the contract.
        assert got == _old_daemon_estimate(samples, window, query)
