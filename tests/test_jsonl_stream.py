"""The append contract of the two JSONL streams (snapshot tap, checkpoint journal).

Both grow through :class:`repro.ioutil.JsonlAppender`: after process death at
any instant the file is a byte prefix of the uninterrupted one, so these tests
cut finished files at every byte and hold the readers — and the journal's
resume — to exactly the complete-record prefix.
"""

import json
import os
from collections import Counter

import pytest

from repro.faultlab import campaign
from repro.faultlab.campaign import run_campaign, run_scenario
from repro.faultlab.scenarios import builtin_specs
from repro.ioutil import JsonlAppender
from repro.observe.snapshots import SnapshotTap, read_snapshots, snapshot_path
from repro.resilience import CheckpointJournal, JournalError
from repro.shard import run_sharded_scenario
from repro.sim import units

META = {"campaign": "x", "base_seed": 7}
ENTRIES = [
    ("alpha|1|" + "a" * 64, 42),
    ("beta|2|" + "b" * 64, {"nested": {"deep": [1, 2, {"k": "v"}]}, "n": None}),
    ("gamma|3|" + "c" * 64, [1.5, "text"]),
]


def _spans(data: bytes):
    """``(start, end of JSON text)`` of every line; the newline sits at ``end``."""
    spans, start = [], 0
    while start < len(data):
        end = data.index(b"\n", start)
        spans.append((start, end))
        start = end + 1
    return spans


# ----------------------------------------------------------------------
# The writer itself
# ----------------------------------------------------------------------
class TestAppender:
    def test_truncates_then_appends(self, tmp_path):
        path = tmp_path / "deep" / "s.jsonl"
        path.parent.mkdir()
        path.write_bytes(b"stale content, longer than what follows\n" * 4)
        with JsonlAppender(str(path)) as stream:
            assert path.read_bytes() == b""
            assert stream.append(["a", "b"]) == 4
            assert path.read_bytes() == b"a\nb\n"  # in the kernel before close
            assert stream.append(["c"]) == 6
        assert stream.closed
        assert path.read_bytes() == b"a\nb\nc\n"
        stream.close()  # idempotent

    def test_keep_cuts_back_before_appending(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2}\n{"torn')
        with JsonlAppender(str(path), keep=16) as stream:
            assert stream.append(['{"c":3}']) == 24
        assert path.read_bytes() == b'{"a":1}\n{"b":2}\n{"c":3}\n'

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "new" / "dir" / "s.jsonl"
        JsonlAppender(str(path)).close()
        assert path.read_bytes() == b""


# ----------------------------------------------------------------------
# (a) a snapshot stream cut at every byte
# ----------------------------------------------------------------------
def _finished_stream(path) -> bytes:
    tap = SnapshotTap(str(path), {"scenario": "s", "seed": 1, "duration_fs": 20_000})
    for i in range(20):
        tap.emit({"t_fs": i * 1000, "index": i, "worst_units": i % 5 or None})
    tap.finalize({"scenario": "s", "seed": 1, "observe": {"samples": 20}})
    assert tap.flushes == 2
    return path.read_bytes()


def test_snapshot_stream_cut_at_every_byte(tmp_path):
    data = _finished_stream(tmp_path / "full.snapshots.jsonl")
    spans = _spans(data)
    records = [json.loads(data[start:end]) for start, end in spans]
    assert [r["record"] for r in records] == (
        ["snapshot-header"] + ["snapshot"] * 20 + ["final"]
    )
    cut_path = tmp_path / "cut.snapshots.jsonl"
    for cut in range(len(data) + 1):
        cut_path.write_bytes(data[:cut])
        whole = [rec for rec, (_, end) in zip(records, spans) if end <= cut]
        assert read_snapshots(str(cut_path)) == {
            "header": whole[0] if whole else None,
            "snapshots": [r for r in whole if r["record"] == "snapshot"],
            "final": whole[-1] if len(whole) == len(records) else None,
        }, cut


@pytest.mark.parametrize("ending", ["close", "finalize"])
def test_closed_tap_refuses_at_once_and_names_its_path(tmp_path, ending):
    path = tmp_path / "s.snapshots.jsonl"
    tap = SnapshotTap(str(path), {"scenario": "s"})
    tap.emit({"index": 0})
    if ending == "close":
        tap.close()
    else:
        tap.finalize({"scenario": "s"})
    written = path.read_bytes()
    # Unchecked, 15 emits vanished into the pending batch and the 16th raised
    # from inside the appender; a second finalize vanished outright.
    for refused in (tap.emit, tap.finalize):
        with pytest.raises(ValueError, match=r"s\.snapshots\.jsonl.* is closed"):
            refused({"index": 1})
    tap.flush()
    tap.close()  # still idempotent
    assert path.read_bytes() == written and tap._pending == []


# ----------------------------------------------------------------------
# (b) a journal cut at every byte
# ----------------------------------------------------------------------
def _full_journal(path) -> bytes:
    journal = CheckpointJournal(str(path), meta=META)
    for key, result in ENTRIES:
        journal.record(key, result)
    return path.read_bytes()


def test_journal_cut_at_every_byte_resumes_to_identical_bytes(tmp_path):
    full = _full_journal(tmp_path / "full.jsonl")
    spans = _spans(full)
    assert len(spans) == 1 + len(ENTRIES)
    header_len = spans[0][1] + 1
    path = tmp_path / "cut.jsonl"
    for cut in range(header_len, len(full) + 1):
        path.write_bytes(full[:cut])
        journal = CheckpointJournal(str(path), meta=META)
        assert path.read_bytes() == full[:cut], cut  # loading never writes
        # Complete = its newline is on disk; at cut == end the JSON text is
        # whole but unterminated, and appending after it would fuse two records.
        complete = sum(1 for _, end in spans[1:] if end < cut)
        assert len(journal) == complete, cut
        assert [(f"{e['name']}|{e['seed']}|{e['args_sha256']}", e["result"])
                for e in journal.entries] == ENTRIES[:complete], cut
        for key, result in ENTRIES[complete:]:
            journal.record(key, result)
        assert path.read_bytes() == full, cut
        assert len(CheckpointJournal(str(path), meta=META)) == len(ENTRIES)


def test_torn_journal_header_raises(tmp_path):
    full = _full_journal(tmp_path / "full.jsonl")
    header_len = full.index(b"\n") + 1
    path = tmp_path / "cut.jsonl"
    for cut in range(header_len):
        path.write_bytes(full[:cut])
        with pytest.raises(JournalError):
            CheckpointJournal(str(path), meta=META)
        assert path.read_bytes() == full[:cut]


def test_journal_creation_never_exposes_a_partial_header(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    seen = []
    real_replace = os.replace

    def spy(src, dst):
        with open(src, "rb") as handle:
            seen.append((os.path.exists(dst), handle.read()))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    CheckpointJournal(str(path), meta=META)
    header = path.read_bytes()
    assert header.endswith(b"\n") and json.loads(header)["meta"] == META
    assert seen == [(False, header)]  # nothing at the path until all of it is


# ----------------------------------------------------------------------
# (c) a rerun over a longer stream of the same name
# ----------------------------------------------------------------------
def test_rerun_over_longer_stream_leaves_only_fresh_bytes(tmp_path):
    spec = builtin_specs(["baseline"], quick=True)[0]
    short = dict(spec, duration_fs=1)  # the sampler's t=0 instant only
    fresh_dir, reused_dir = str(tmp_path / "fresh"), str(tmp_path / "reused")
    run_scenario(dict(short), seed=0, snapshot_dir=fresh_dir)
    with open(snapshot_path(fresh_dir, "baseline"), "rb") as handle:
        fresh = handle.read()
    assert len(read_snapshots(snapshot_path(fresh_dir, "baseline"))["snapshots"]) == 1

    run_scenario(dict(spec, duration_fs=200 * units.US), seed=0, snapshot_dir=reused_dir)
    assert os.path.getsize(snapshot_path(reused_dir, "baseline")) > len(fresh)
    run_scenario(dict(short), seed=0, snapshot_dir=reused_dir)
    with open(snapshot_path(reused_dir, "baseline"), "rb") as handle:
        assert handle.read() == fresh
    assert os.listdir(reused_dir) == ["baseline.snapshots.jsonl"]


# ----------------------------------------------------------------------
# (d) fsyncs: one per file, one per journal record
# ----------------------------------------------------------------------
@pytest.fixture
def fsynced(monkeypatch):
    """Inode -> number of ``os.fsync`` calls (an atomic write's temp file keeps
    its inode through the rename)."""
    counts = Counter()
    real_fsync = os.fsync

    def spy(fd):
        counts[os.fstat(fd).st_ino] += 1
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return counts


def test_one_fsync_per_artifact_file(tmp_path, fsynced):
    specs = builtin_specs(["link-flap", "two-faced"], quick=True)
    out = str(tmp_path / "out")
    run_campaign(
        specs, base_seed=0, jobs=1,
        trace_dir=out, metrics_dir=out, flight_dir=out, snapshot_dir=out,
    )
    names = sorted(os.listdir(out))
    assert {name.split(".", 1)[1] for name in names} == {
        "trace.jsonl", "metrics.json", "prom", "snapshots.jsonl",
        "flight.jsonl", "insight.md",
    }
    assert not [name for name in names if name.endswith(".tmp")]
    inodes = {os.stat(os.path.join(out, name)).st_ino for name in names}
    assert len(inodes) == len(names)
    assert dict(fsynced) == dict.fromkeys(inodes, 1)


def test_one_fsync_per_journal_record_plus_header(tmp_path, fsynced):
    path = tmp_path / "j.jsonl"
    journal = CheckpointJournal(str(path), meta=META)
    assert sum(fsynced.values()) == 1
    for done, (key, result) in enumerate(ENTRIES, start=1):
        journal.record(key, result)
        assert sum(fsynced.values()) == 1 + done  # durable before record() returns
    assert dict(fsynced) == {os.stat(path).st_ino: 1 + len(ENTRIES)}


# ----------------------------------------------------------------------
# (e) a run that raises keeps what it sampled, and closes its tap
# ----------------------------------------------------------------------
@pytest.fixture
def taps(monkeypatch):
    """Every tap ``make_probe`` opens, with the lines each one was given."""
    made = []
    real_make_tap = campaign.make_tap

    def spy(*args):
        tap = real_make_tap(*args)
        tap.emitted = 0
        real_emit = tap.emit

        def emit(fields):
            tap.emitted += 1
            real_emit(fields)

        tap.emit = emit
        made.append(tap)
        return tap

    monkeypatch.setattr(campaign, "make_tap", spy)
    return made


def _assert_kept_and_closed(tap, emitted_at_least: int) -> None:
    assert tap._stream.closed
    stream = read_snapshots(tap.path)
    assert stream["header"] is not None and stream["final"] is None
    assert [s["index"] for s in stream["snapshots"]] == list(range(tap.emitted))
    # Not a multiple of the batch size: the tail was still pending at the raise.
    assert tap.emitted >= emitted_at_least and (tap.emitted + 1) % 16


def test_any_other_exception_keeps_every_snapshot(tmp_path, taps):
    def boom():
        raise RuntimeError("observer event")

    def observer(sim, **_):
        sim.schedule_at(100 * units.US, boom)

    spec = builtin_specs(["two-faced"], quick=True)[0]
    with pytest.raises(RuntimeError, match="observer event"):
        run_scenario(spec, seed=0, snapshot_dir=str(tmp_path), observers=[observer])
    (tap,) = taps
    _assert_kept_and_closed(tap, 17)


def test_sharded_run_that_raises_keeps_every_snapshot(tmp_path, taps, monkeypatch):
    from repro.shard import coordinator

    def refuse(*_args):
        raise campaign.CampaignError("refused at finish")

    monkeypatch.setattr(coordinator, "finish", refuse)
    spec = builtin_specs(["link-flap"], quick=True)[0]
    spec["duration_fs"] = 100 * units.US
    with pytest.raises(campaign.CampaignError, match="refused at finish"):
        run_sharded_scenario(
            spec, seed=0, shards=2, transport="inline", snapshot_dir=str(tmp_path)
        )
    (tap,) = taps
    _assert_kept_and_closed(tap, 17)
