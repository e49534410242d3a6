"""Unit tests for CDC FIFO, bit-error injection, and pipeline latencies."""

import random

import pytest

from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.phy.ber import BitErrorInjector, parity_of_lsbs
from repro.phy.cdc import SyncFifo
from repro.dtp.device import DtpDevice
from repro.dtp.messages import MessageType
from repro.dtp.port import DtpPort, DtpPortConfig, PortState
from repro.phy.blocks import IDLE_WIRE_BASE
from repro.phy.pipeline import PhyLatencyConfig
from repro.sim import units

TICK = units.TICK_10G_FS


def make_osc(ppm=0.0):
    return Oscillator(TICK, ConstantSkew(ppm))


def settled_time(osc, fifo, arrival_fs):
    """When an arrival is visible locally: sampled on the next edge, then
    settled through the FIFO."""
    return osc.time_of_tick(fifo.settle(osc.edge_index_after(arrival_fs)))


class TestSyncFifo:
    def test_delivery_is_after_arrival(self):
        osc = make_osc()
        fifo = SyncFifo(random.Random(1))
        for t in range(0, 50 * TICK, 7 * TICK // 3):
            assert settled_time(osc, fifo, t) > t

    def test_delivery_on_clock_edge(self):
        osc = make_osc()
        fifo = SyncFifo(random.Random(2))
        t = 13 * TICK + 1234
        delivered = settled_time(osc, fifo, t)
        assert osc.ticks_at(delivered) == osc.ticks_at(delivered - 1) + 1

    def test_delay_spread_at_most_two_ticks(self):
        """Quantization (<1 tick) + metastability (0-1 tick)."""
        osc = make_osc()
        fifo = SyncFifo(random.Random(3))
        arrival = 10 * TICK + 17
        delays = {settled_time(osc, fifo, arrival) - arrival for _ in range(200)}
        assert max(delays) - min(delays) <= TICK
        assert max(delays) <= 2 * TICK
        assert {fifo.settle(7) for _ in range(50)} == {7, 8}

    def test_disabled_fifo_is_deterministic(self):
        rng = random.Random(4)
        fifo = SyncFifo(rng, enabled=False)
        assert {fifo.settle(7) for _ in range(50)} == {7}
        assert rng.random() == random.Random(4).random()  # no draw

    def test_crossing_counter(self):
        fifo = SyncFifo(random.Random(5))
        fifo.settle(0)
        fifo.settle(1)
        assert fifo.crossings == 2


class TestBitErrorInjector:
    def test_zero_ber_never_corrupts(self):
        injector = BitErrorInjector(0.0, random.Random(1))
        for _ in range(100):
            assert injector.corrupt(0xABCD, 66) == 0xABCD
        assert injector.errors_injected == 0

    def test_high_ber_corrupts(self):
        injector = BitErrorInjector(0.5, random.Random(2))
        corrupted = 0
        for _ in range(100):
            if injector.corrupt(0, 66) != 0:
                corrupted += 1
        assert corrupted > 90

    def test_error_rate_approximately_matches(self):
        ber = 1e-3
        injector = BitErrorInjector(ber, random.Random(3))
        bits = 2_000_000
        injector.corrupt(0, bits)
        expected = bits * ber
        assert 0.7 * expected < injector.errors_injected < 1.3 * expected

    def test_invalid_ber_rejected(self):
        with pytest.raises(ValueError):
            BitErrorInjector(-0.1, random.Random(1))
        with pytest.raises(ValueError):
            BitErrorInjector(1.0, random.Random(1))

    def test_corruption_flips_only_within_width(self):
        injector = BitErrorInjector(0.3, random.Random(4))
        for _ in range(100):
            corrupted = injector.corrupt(0, 8)
            assert corrupted < (1 << 8)

    def test_parity_of_lsbs(self):
        assert parity_of_lsbs(0b000) == 0
        assert parity_of_lsbs(0b001) == 1
        assert parity_of_lsbs(0b011) == 0
        assert parity_of_lsbs(0b111) == 1
        assert parity_of_lsbs(0b1000) == 0  # only three LSBs count


def make_pair(sim, streams, latency):
    """Two synchronized ports on zero-skew oscillators over a 0 fs cable."""
    config = DtpPortConfig(latency=latency)
    ports = [
        DtpPort(DtpDevice(sim, n, make_osc(), streams.fork(n)), n, config=config)
        for n in ("a", "b")
    ]
    ports[0].connect(ports[1], 0, 0)
    for port in ports:
        port.state = PortState.SYNCHRONIZED
    return ports


class TestPipeline:
    def test_tx_exit_after_pipeline(self, sim, streams):
        a, b = make_pair(sim, streams, PhyLatencyConfig(tx_pipeline_ticks=18))
        arrivals = []
        b._arrive = lambda wire_bits: arrivals.append(sim.now)
        sim.run_until(10 * TICK)
        a._transmit_now(MessageType.LOG, 10, 0)
        sim.run_until(100 * TICK)
        assert [a.osc.ticks_at(t) for t in arrivals] == [28]

    def test_rx_process_includes_pipeline_and_cdc(self, sim, streams):
        a, b = make_pair(sim, streams, PhyLatencyConfig(rx_pipeline_ticks=18))
        processed = []
        b._process = lambda bits56, tick: processed.append((sim.now, tick))
        arrival = 100 * TICK + 5
        for k in range(20):
            sim.run_until(arrival + k * 50 * TICK)
            b._arrive(IDLE_WIRE_BASE)
        sim.run_until(arrival + 1000 * TICK)
        elapsed = {
            b.osc.ticks_at(t) - b.osc.ticks_at(arrival + k * 50 * TICK)
            for k, (t, _) in enumerate(processed)
        }
        assert elapsed == {19, 20}  # quantize(1) + cdc(0..1) + 18
        assert all(tick == b.osc.ticks_at(t) for t, tick in processed)

    def test_negative_pipeline_rejected(self):
        with pytest.raises(ValueError):
            PhyLatencyConfig(tx_pipeline_ticks=-1)

    def test_default_owd_matches_paper(self):
        """TX 18 + RX 18 + ~8 ticks of 10.24 m cable ~= 44-46 cycles.

        The paper measured 43-45 cycles (~280 ns) over its 10 m runs.
        """
        config = PhyLatencyConfig()
        cable_ticks = round(10.24 * units.FIBER_DELAY_FS_PER_M / TICK)
        owd = config.tx_pipeline_ticks + config.rx_pipeline_ticks + cable_ticks
        assert 42 <= owd <= 46
