"""Unit and property tests for idle-cadence traffic models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.dtp.device import DtpDevice
from repro.dtp.messages import MessageType
from repro.dtp.port import DtpPort
from repro.ethernet.frames import MTU_FRAME, JUMBO_FRAME
from repro.ethernet.traffic import SaturatedTraffic
from repro.sim import units
from tests.equivalence_models import PartialLoadTraffic, TrafficError


class TestIdleLink:
    def test_every_tick_is_idle(self, sim, streams):
        """A port with no traffic model is on an idle link: each message
        takes the tick after the one it is queued on."""
        oscillator = Oscillator(units.TICK_10G_FS, ConstantSkew(0.0))
        port = DtpPort(DtpDevice(sim, "a", oscillator, streams.fork("a")), "a->b")
        assert port.traffic is None
        for tick in (0, 1, 7, 1000):
            port._schedule_transmit(MessageType.LOG, tick)
            assert port._last_tx_slot == tick + 1


class TestSaturatedTraffic:
    def test_idle_slots_once_per_frame_slot(self):
        model = SaturatedTraffic(MTU_FRAME)
        first = model.next_idle_tick(0)
        second = model.next_idle_tick(first + 1)
        assert second - first == MTU_FRAME.slot_blocks

    def test_phase_shifts_slots(self):
        base = SaturatedTraffic(MTU_FRAME, phase=0)
        shifted = SaturatedTraffic(MTU_FRAME, phase=7)
        assert shifted.next_idle_tick(0) == base.next_idle_tick(0) + 7

    def test_idle_tick_query_exact_hit(self):
        model = SaturatedTraffic(MTU_FRAME, phase=5)
        slot = model.next_idle_tick(0)
        assert model.next_idle_tick(slot) == slot

    def test_utilization_close_to_one(self):
        model = SaturatedTraffic(JUMBO_FRAME)
        ticks = 10 * model.period
        idle = sum(1 for tick in range(ticks) if model.next_idle_tick(tick) == tick)
        assert 1 - idle / ticks > 0.999

    def test_result_never_before_query(self):
        model = SaturatedTraffic(MTU_FRAME, phase=11)
        for tick in range(0, 1000, 37):
            assert model.next_idle_tick(tick) >= tick


class TestPartialLoadTraffic:
    def make(self, load):
        return PartialLoadTraffic(MTU_FRAME, load, random.Random(5))

    def test_zero_load_always_idle_soon(self):
        model = self.make(0.0)
        assert model.next_idle_tick(100) == 100

    def test_monotonic_queries_enforced(self):
        model = self.make(0.5)
        model.next_idle_tick(1000)
        with pytest.raises(TrafficError):
            model.next_idle_tick(10)

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            self.make(1.0)
        with pytest.raises(ValueError):
            self.make(-0.1)

    def test_average_gap_tracks_load(self):
        """At 50% load, idle opportunities come about one frame apart."""
        model = self.make(0.5)
        slots = []
        tick = 0
        for _ in range(300):
            slot = model.next_idle_tick(tick)
            slots.append(slot)
            tick = slot + 1
        # Average spacing between used slots stays well under the frame
        # size at 50% load (long idle runs offer many slots).
        spacing = (slots[-1] - slots[0]) / (len(slots) - 1)
        assert spacing < MTU_FRAME.blocks

    def test_result_never_before_query(self):
        model = self.make(0.8)
        tick = 0
        for _ in range(200):
            slot = model.next_idle_tick(tick)
            assert slot >= tick
            tick = slot + 17


class TestDelayedTraffic:
    """A model given a start tick, as ``install_traffic`` gives each one:
    idle before it, the model shifted to begin there after it."""

    def test_idle_before_start(self):
        model = SaturatedTraffic(MTU_FRAME)
        model.start_at(1000)
        assert model.next_idle_tick(5) == 5
        assert model.next_idle_tick(999) == 999

    def test_inner_model_after_start(self):
        inner = SaturatedTraffic(MTU_FRAME, phase=7)
        model = SaturatedTraffic(MTU_FRAME, phase=7)
        model.start_at(1000)
        for tick in range(0, 5000, 37):
            assert model.next_idle_tick(1000 + tick) == 1000 + inner.next_idle_tick(tick)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SaturatedTraffic(MTU_FRAME).start_at(-1)


@given(
    phase=st.integers(min_value=0, max_value=2000),
    queries=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_property_saturated_slots_are_slots(phase, queries):
    """Whatever we query, the returned tick is at/after the query and is a
    genuine idle slot (querying it again returns itself)."""
    model = SaturatedTraffic(MTU_FRAME, phase=phase)
    for q in queries:
        slot = model.next_idle_tick(q)
        assert slot >= q
        assert model.next_idle_tick(slot) == slot
        assert (slot - phase) % MTU_FRAME.slot_blocks == 0
