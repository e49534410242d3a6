"""Unit tests for cables and byte FIFOs."""

import pytest

from repro.network.link import Cable, CableError, MAX_DATACENTER_CABLE_M
from repro.network.queues import ByteFifo
from repro.sim import units


class TestCable:
    def test_default_delay_is_integer_ticks(self):
        cable = Cable()
        assert cable.delay_fs % units.TICK_10G_FS == 0
        assert cable.delay_fs == 8 * units.TICK_10G_FS

    def test_delay_five_ns_per_meter(self):
        cable = Cable(length_m=100.0)
        assert cable.delay_fs == 500 * units.NS

    def test_asymmetry_splits_directions(self):
        cable = Cable(length_m=10.0, asymmetry_fs=2 * units.NS)
        assert cable.forward_delay_fs() - cable.reverse_delay_fs() == 2 * units.NS

    def test_symmetric_by_default(self):
        cable = Cable()
        assert cable.forward_delay_fs() == cable.reverse_delay_fs() == cable.delay_fs

    def test_zero_length_rejected(self):
        with pytest.raises(CableError):
            Cable(length_m=0.0)

    def test_overlong_cable_rejected(self):
        with pytest.raises(CableError):
            Cable(length_m=MAX_DATACENTER_CABLE_M + 1)

    def test_max_datacenter_cable_delay_is_5us(self):
        cable = Cable(length_m=1000.0)
        assert cable.delay_fs == 5 * units.US


class TestByteFifo:
    def test_push_pop_order(self):
        fifo = ByteFifo(1000)
        fifo.push("a", 100)
        fifo.push("b", 100)
        assert fifo.pop() == ("a", 100)
        assert fifo.pop() == ("b", 100)

    def test_pop_empty_returns_none(self):
        assert ByteFifo(10).pop() is None

    def test_tail_drop_when_full(self):
        fifo = ByteFifo(150)
        assert fifo.push("a", 100) is True
        assert fifo.push("b", 100) is False
        assert fifo.dropped == 1

    def test_bytes_accounting(self):
        fifo = ByteFifo(1000)
        fifo.push("a", 300)
        assert fifo._bytes == 300
        fifo.pop()
        assert fifo._bytes == 0

    def test_peak_tracking(self):
        fifo = ByteFifo(1000)
        fifo.push("a", 400)
        fifo.push("b", 500)
        fifo.pop()
        fifo.pop()
        assert fifo.peak_bytes == 900

    def test_len(self):
        fifo = ByteFifo(1000)
        fifo.push("a", 1)
        assert len(fifo) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ByteFifo(0)
