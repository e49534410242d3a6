"""Trace recorder: ring bounds, interning, and disabled-path neutrality."""

import pytest

from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.network.topology import star
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry import Telemetry, TraceRecorder
from repro.telemetry.events import EV_RX, EV_TX, kind_name
from repro.telemetry.flight import build_flight


class TestRecorder:
    def test_record_and_tail(self):
        tracer = TraceRecorder(capacity=8)
        for i in range(5):
            tracer.record(i * 10, EV_TX, 0, a=i)
        assert len(tracer) == 5
        assert tracer.recorded == 5
        assert tracer.dropped == 0
        assert tracer.tail(2) == [(30, EV_TX, 0, 3, 0), (40, EV_TX, 0, 4, 0)]
        assert tracer.tail() == tracer.tail(99)

    def test_tail_zero_is_empty(self):
        tracer = TraceRecorder(capacity=4)
        for i in range(6):
            tracer.record(i, EV_TX, 0)
        assert tracer.tail(0) == []
        assert tracer.tail(1) == [(5, EV_TX, 0, 0, 0)]
        assert TraceRecorder().tail(0) == []
        telemetry = Telemetry()
        telemetry.tracer = tracer
        dump = build_flight(telemetry, "s", 0, 0, last_n=0)
        assert dump.records == [] and dump.header["trace_tail"] == 0

    def test_negative_tail_raises(self):
        tracer = TraceRecorder(capacity=4)
        for i in range(3):
            tracer.record(i, EV_TX, 0)
        with pytest.raises(ValueError):
            tracer.tail(-1)

    def test_ring_drops_oldest(self):
        tracer = TraceRecorder(capacity=4)
        for i in range(10):
            tracer.record(i, EV_RX, 0)
        assert len(tracer) == 4
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        assert [r[0] for r in tracer.records] == [6, 7, 8, 9]

    def test_subject_interning_is_first_use_order(self):
        tracer = TraceRecorder()
        assert tracer.subject_id("b") == 0
        assert tracer.subject_id("a") == 1
        assert tracer.subject_id("b") == 0
        assert tracer.subjects == ["b", "a"]
        assert tracer.subject_name(1) == "a"

    def test_clear(self):
        tracer = TraceRecorder(capacity=4)
        tracer.record(1, EV_TX, 0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.recorded == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_kind_names_are_total(self):
        assert kind_name(EV_TX) == "tx"
        assert kind_name(9999).startswith("kind-")


def _run_star(telemetry, duration_fs=400 * units.US, seed=3):
    sim = Simulator()
    net = DtpNetwork(
        sim,
        star(2),
        RandomStreams(seed),
        config=DtpPortConfig(beacon_interval_ticks=200),
        telemetry=telemetry,
    )
    net.start()
    sim.run_until(duration_fs)
    return net


class TestInstrumentation:
    def test_traced_run_records_port_events(self):
        telemetry = Telemetry()
        _run_star(telemetry)
        tracer = telemetry.tracer
        assert tracer.recorded > 0
        kinds = {record[1] for record in tracer.records}
        assert EV_TX in kinds
        assert EV_RX in kinds
        # Every port appears in the subject table.
        assert any("->" in name for name in tracer.subjects)

    def test_disabled_trace_still_collects_metrics(self):
        telemetry = Telemetry(trace=False)
        _run_star(telemetry)
        assert telemetry.tracer is None
        assert telemetry.trace_digest() is None
        sent = telemetry.registry.get("dtp_messages_sent_total")
        assert sum(child.value for _, child in sent.samples()) > 0

    def test_telemetry_none_matches_untraced_offsets(self):
        """telemetry=None and telemetry=Telemetry() must not diverge."""
        t_fs = 400 * units.US
        baseline = _run_star(None, duration_fs=t_fs)
        traced = _run_star(Telemetry(), duration_fs=t_fs)
        counters_a = sorted(
            (key, port.lc.counter_at(t_fs)) for key, port in baseline.ports.items()
        )
        counters_b = sorted(
            (key, port.lc.counter_at(t_fs)) for key, port in traced.ports.items()
        )
        assert counters_a == counters_b

    def test_same_seed_runs_trace_identically(self):
        t1, t2 = Telemetry(), Telemetry()
        _run_star(t1)
        _run_star(t2)
        assert list(t1.tracer.records) == list(t2.tracer.records)
        assert t1.tracer.subjects == t2.tracer.subjects
        assert t1.metrics_digest() == t2.metrics_digest()

    def test_different_seed_runs_trace_differently(self):
        t1, t2 = Telemetry(), Telemetry()
        _run_star(t1, seed=3)
        _run_star(t2, seed=4)
        assert t1.trace_digest() != t2.trace_digest()
