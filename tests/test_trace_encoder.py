"""The one trace-record encoder: byte equality, the digest memo, one pass,
and the flat ring against a ``deque`` model."""

import enum
import hashlib
import json
import os
import tempfile
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtp.messages import MessageType
from repro.faultlab.campaign import run_scenario
from repro.faultlab.scenarios import builtin_specs
from repro.ioutil import canonical_json
from repro.telemetry import Telemetry, TraceRecorder, export, flight, trace
from repro.telemetry.export import (
    encode_block,
    encode_records,
    trace_digest,
    write_trace_jsonl,
)
from tests.conftest import file_sha256


def reference_lines(records) -> bytes:
    """The pre-template encoder: ``canonical_json`` per record, one line
    each, as the UTF-8 bytes an artifact holds."""
    return "".join(
        canonical_json({"a": a, "b": b, "k": k, "s": s, "t": t}) + "\n"
        for t, k, s, a, b in records
    ).encode("utf-8")


class Flag(enum.IntFlag):
    LOW = 1
    HIGH = 1 << 70


ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**130),
    st.integers(max_value=-(2**64)),
    st.sampled_from(list(MessageType)),
    st.sampled_from(list(Flag)),
)
#: Everything JSON can carry that ``%d`` would coerce or reject.
non_ints = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)


def records_of(field):
    return st.lists(st.tuples(field, field, field, field, field), max_size=40)


class TestEncoderEquality:
    @settings(max_examples=200, deadline=None)
    @given(records_of(ints))
    def test_ints_and_int_subclasses(self, records):
        assert encode_records(records) == reference_lines(records)

    @settings(max_examples=200, deadline=None)
    @given(records_of(st.one_of(ints, non_ints)))
    def test_mixed_types_fall_back(self, records):
        assert encode_records(records) == reference_lines(records)

    @pytest.mark.parametrize("odd", [True, 1.5, None, "7"])
    def test_one_odd_field_is_not_coerced(self, odd):
        records = [(1, 2, 3, 4, 5), (6, 7, 8, odd, 9)]
        assert encode_records(records) == reference_lines(records)

    def test_int_subclasses_take_the_template(self, monkeypatch):
        # A `type(x) is int` guard would send every TX/RX block down the
        # per-record path; make that path unusable to prove it is not taken.
        monkeypatch.setattr(export, "canonical_json", None)
        assert (
            encode_records([(10, 1, 0, MessageType.BEACON, -3)])
            == b'{"a":2,"b":-3,"k":1,"s":0,"t":10}\n'
        )

    def test_an_empty_batch_is_no_bytes(self):
        assert encode_records([]) == b""
        assert encode_block([]) == b""

    def test_a_full_block_takes_one_format(self):
        records = [(t, 1, 2, -t, 2**70 + t) for t in range(export._RECORD_BLOCK)]
        flat = [x for t, k, s, a, b in records for x in (a, b, k, s, t)]
        assert encode_block(flat) == reference_lines(records)


@st.composite
def ring_records(draw):
    """A record of ints (negatives, >= 2**64, ``IntEnum``), now and then with
    one bool / float / None / str field."""
    record = list(draw(st.tuples(ints, ints, ints, ints, ints)))
    if draw(st.integers(0, 3)) == 0:
        record[draw(st.integers(0, 4))] = draw(non_ints)
    return tuple(record)


class TestRingAgainstDeque:
    """The flat ring reads exactly as a ``deque(maxlen=capacity)`` of record
    tuples would, through every accessor and both exports."""

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        spill=st.sampled_from([1, 2, 3, trace._SPILL]),
        records=st.lists(ring_records(), max_size=40),
    )
    def test_ring_matches_model(self, capacity, spill, records):
        with mock.patch.object(trace, "_SPILL", spill):
            tracer = TraceRecorder(capacity)
        tracer.subject_id("p0")
        model = deque(maxlen=capacity)
        for record in records:
            tracer.record(*record)
            model.append(record)
            assert len(tracer.flat) <= trace.FIELDS * (capacity + spill)
        assert tracer.records == list(model)
        for n in range(capacity + 3):
            assert tracer.tail(n) == (list(model)[-n:] if n else [])
        assert tracer.tail() == list(model)
        assert tracer.recorded == len(records)
        assert len(tracer) == len(model)
        assert tracer.dropped == len(records) - len(model)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "t.jsonl")
            write_trace_jsonl(path, tracer)
            with open(path, "rb") as handle:
                raw = handle.read()
        header, body = raw.split(b"\n", 1)
        assert body == reference_lines(model)
        head = json.loads(header)
        assert (head["capacity"], head["recorded"], head["dropped"], head["subjects"]) == (
            capacity, len(records), len(records) - len(model), ["p0"]
        )
        assert trace_digest(_copy(tracer)) == hashlib.sha256(raw).hexdigest()


def small_recorder(capacity: int = 8) -> TraceRecorder:
    tracer = TraceRecorder(capacity)
    port = tracer.subject_id("p0")
    for t in range(5):
        tracer.record(t, 1, port, MessageType.BEACON, t * 7)
    return tracer


class CountingEncoder:
    """Wraps ``encode_block`` (which every record encoding goes through) and
    counts the records it is handed."""

    def __init__(self, monkeypatch) -> None:
        self.records = 0
        real = export.encode_block

        def spy(flat):
            assert len(flat) % trace.FIELDS == 0
            self.records += len(flat) // trace.FIELDS
            return real(flat)

        monkeypatch.setattr(export, "encode_block", spy)


class TestDigestMemo:
    def test_digest_then_write(self, tmp_path):
        tracer = small_recorder()
        digest = trace_digest(tracer)
        write_trace_jsonl(str(tmp_path / "t.jsonl"), tracer)
        assert digest == file_sha256(str(tmp_path / "t.jsonl"))

    def test_write_then_digest_is_a_lookup(self, tmp_path, monkeypatch):
        tracer = small_recorder()
        write_trace_jsonl(str(tmp_path / "t.jsonl"), tracer)
        spy = CountingEncoder(monkeypatch)
        assert trace_digest(tracer) == file_sha256(str(tmp_path / "t.jsonl"))
        assert spy.records == 0

    def test_recording_invalidates(self):
        tracer = small_recorder()
        before = trace_digest(tracer)
        tracer.record(99, 1, 0, 0, 0)
        assert trace_digest(tracer) != before
        assert trace_digest(tracer) == trace_digest(_copy(tracer))

    def test_new_subject_invalidates(self):
        tracer = small_recorder()
        before = trace_digest(tracer)
        tracer.subject_id("p1")
        assert trace_digest(tracer) != before
        assert trace_digest(tracer) == trace_digest(_copy(tracer))

    def test_ring_wraparound_invalidates(self):
        tracer = small_recorder(capacity=5)
        assert tracer.dropped == 0 and len(tracer) == 5
        before = trace_digest(tracer)
        tracer.record(5, 1, 0, 0, 0)
        assert len(tracer) == 5 and tracer.dropped == 1
        assert trace_digest(tracer) != before
        assert trace_digest(tracer) == trace_digest(_copy(tracer))

    def test_clear_drops_the_memo(self):
        tracer = small_recorder()
        before = trace_digest(tracer)
        tracer.clear()
        assert tracer.digest_memo is None
        # Same counts as before, different content: only clear() can tell.
        for t in range(5):
            tracer.record(t, 2, 0, 0, 0)
        assert trace_digest(tracer) != before


def _copy(tracer: TraceRecorder) -> TraceRecorder:
    """A memo-less recorder with the same content."""
    fresh = TraceRecorder(tracer.capacity)
    for name in tracer.subjects:
        fresh.subject_id(name)
    fresh.flat.extend(tracer.flat)
    fresh._cut = tracer._cut
    assert (fresh.records, fresh.recorded) == (tracer.records, tracer.recorded)
    return fresh


def _baseline_spec():
    (spec,) = builtin_specs(["baseline"], quick=True)
    return spec


class TestOnePass:
    def test_trace_dir_run_encodes_each_record_once(self, tmp_path, monkeypatch):
        spy = CountingEncoder(monkeypatch)
        result = run_scenario(_baseline_spec(), seed=0, trace_dir=str(tmp_path))
        recorded = result["telemetry"]["trace_recorded"]
        assert 0 < recorded == spy.records
        assert result["telemetry"]["trace_digest"] == file_sha256(
            str(tmp_path / "baseline.trace.jsonl")
        )

    def test_bare_telemetry_run_encodes_each_record_once(self, monkeypatch):
        spy = CountingEncoder(monkeypatch)
        telemetry = Telemetry()
        result = run_scenario(_baseline_spec(), seed=0, telemetry=telemetry)
        assert 0 < telemetry.tracer.recorded == spy.records
        # ...and asking again afterwards is a lookup, not a second pass.
        assert result["telemetry"]["trace_digest"] == telemetry.trace_digest()
        assert spy.records == telemetry.tracer.recorded


class TestFlightUsesTheEncoder:
    def test_empty_tail_roundtrips(self, tmp_path):
        dump = flight.dump_flight(
            str(tmp_path / "f.jsonl"), Telemetry(trace=False), "s", 0, 0
        )
        assert dump.records == []
        raw = (tmp_path / "f.jsonl").read_bytes()
        assert raw.count(b"\n") == 4
        assert flight.load_flight(str(tmp_path / "f.jsonl")).dump_bytes() == raw

    def test_tail_bytes_come_from_encode_records(self, tmp_path):
        telemetry = Telemetry()
        telemetry.tracer = small_recorder()
        dump = flight.dump_flight(str(tmp_path / "f.jsonl"), telemetry, "s", 0, 0)
        lines = (tmp_path / "f.jsonl").read_bytes().splitlines(keepends=True)
        assert b"".join(lines[2:-2]) == encode_records(dump.records)
        assert flight.load_flight(str(tmp_path / "f.jsonl")).dump_bytes() == (
            tmp_path / "f.jsonl"
        ).read_bytes()
