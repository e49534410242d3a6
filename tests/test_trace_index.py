"""TraceIndex: bucketed/bisected queries over trace streams."""

import pytest

from repro.telemetry import Telemetry, TraceIndex, dump_flight, write_trace_jsonl
from repro.telemetry.events import EV_JUMP, EV_OWD, EV_RX, EV_TX
from repro.telemetry.trace import TraceRecorder


def _recorder():
    tracer = TraceRecorder(capacity=64)
    p01 = tracer.subject_id("n0->n1")
    p10 = tracer.subject_id("n1->n0")
    n0 = tracer.subject_id("n0")
    tracer.record(100, EV_TX, p01, 2, 77)
    tracer.record(150, EV_RX, p10, 2, 77)
    tracer.record(150, EV_JUMP, p10, 1, 1)
    tracer.record(200, EV_OWD, p10, 44, 3)
    tracer.record(300, EV_TX, p01, 2, 99)
    tracer.record(300, EV_TX, p01, 2, 99)  # co-timed duplicate
    tracer.record(400, EV_RX, n0, 0, 0)
    return tracer


def test_streams_and_counts():
    index = TraceIndex.from_recorder(_recorder())
    assert len(index) == 7
    assert [r[0] for r in index.stream(EV_TX, "n0->n1")] == [100, 300, 300]
    assert index.stream(EV_TX, "nope") == []
    assert len(index.of_kind(EV_RX)) == 2


def test_subject_helpers():
    index = TraceIndex.from_recorder(_recorder())
    assert index.subject_id("n0->n1") == 0
    assert index.subject_id("ghost") is None
    assert index.subject_name(2) == "n0"
    assert index.subject_name(99) == "subject-99"
    assert index.port_subjects() == ["n0->n1", "n1->n0"]
    assert TraceIndex.port_node("n0->n1") == "n0"
    assert TraceIndex.port_peer("n0->n1") == "n1"
    assert TraceIndex.reverse_port("n0->n1") == "n1->n0"
    assert index.ports_of("n0") == ["n0->n1"]
    assert index.ports_of("n1") == ["n1->n0"]


def test_last_before_bisect_semantics():
    index = TraceIndex.from_recorder(_recorder())
    assert index.last_before(EV_TX, "n0->n1", 100) is None
    assert index.last_before(EV_TX, "n0->n1", 100, inclusive=True)[0] == 100
    assert index.last_before(EV_TX, "n0->n1", 250)[0] == 100
    assert index.last_before(EV_TX, "n0->n1", 10_000)[0] == 300
    assert index.last_before(EV_TX, "ghost", 10_000) is None


def test_at_and_match_queries():
    index = TraceIndex.from_recorder(_recorder())
    assert len(index.at(EV_TX, "n0->n1", 300)) == 2
    assert index.at(EV_TX, "n0->n1", 250) == []
    # Field-matched backward scan: payload 77 is the older record.
    record = index.last_match_before(EV_TX, "n0->n1", 10_000, a=2, b=77)
    assert record[0] == 100
    assert index.last_match_before(EV_TX, "n0->n1", 10_000, b=12345) is None


def test_accounting_and_describe():
    tracer = _recorder()
    index = TraceIndex.from_recorder(tracer)
    assert index.span_fs == (100, 400)
    assert index.recorded == 7
    assert index.dropped == 0
    lines = index.describe()
    assert any("records: 7 indexed" in line for line in lines)
    assert any("owd" in line for line in lines)


def test_ring_overflow_reports_dropped():
    tracer = TraceRecorder(capacity=4)
    sid = tracer.subject_id("n0->n1")
    for t in range(10):
        tracer.record(t, EV_TX, sid, 2, t)
    index = TraceIndex.from_recorder(tracer)
    assert len(index) == 4
    assert index.recorded == 10
    assert index.dropped == 6


def test_load_sniffs_trace_and_flight(tmp_path):
    telemetry = Telemetry(trace_capacity=64)
    tracer = telemetry.tracer
    sid = tracer.subject_id("n0->n1")
    tracer.record(5, EV_TX, sid, 2, 11)
    tracer.record(7, EV_RX, sid, 2, 13)

    trace_path = tmp_path / "x.trace.jsonl"
    write_trace_jsonl(str(trace_path), tracer)
    from_trace = TraceIndex.load(str(trace_path))
    assert from_trace.records == [(5, EV_TX, 0, 2, 11), (7, EV_RX, 0, 2, 13)]
    assert from_trace.subjects == ["n0->n1"]

    flight_path = tmp_path / "x.flight.jsonl"
    dump_flight(str(flight_path), telemetry, "x", 3, 7, context={})
    from_flight = TraceIndex.load(str(flight_path))
    assert from_flight.records == from_trace.records
    assert from_flight.recorded == 2
    assert from_flight.header["scenario"] == "x"


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "nope.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError):
        TraceIndex.load(str(path))
