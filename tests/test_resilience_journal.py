"""The checkpoint journal and the atomic-write helpers under it."""

import json
import os

import pytest

from repro.experiments.parallel import ExperimentTask
from repro.ioutil import atomic_open, atomic_write_bytes, atomic_write_text
from repro.resilience import (
    CheckpointJournal,
    JournalError,
    Supervision,
    args_digest,
    run_supervised,
    task_key,
)


def _double(x):
    return x * 2


def _task(name="t0", x=1, seed=None):
    return ExperimentTask(name, _double, (x,), seed=seed)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        with open(path) as handle:
            assert handle.read() == "two\n"

    def test_bytes(self, tmp_path):
        path = str(tmp_path / "artifact.bin")
        atomic_write_bytes(path, b"\x00\x01")
        with open(path, "rb") as handle:
            assert handle.read() == b"\x00\x01"

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "artifact.txt")
        atomic_write_text(path, "x")
        assert os.path.exists(path)

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        atomic_write_text(path, "data")
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_failure_preserves_previous_content(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        atomic_write_text(path, "original")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as handle:
                handle.write("torn prefix that must never land")
                raise RuntimeError("crash mid-write")
        with open(path) as handle:
            assert handle.read() == "original"
        assert os.listdir(tmp_path) == ["artifact.txt"]


# ----------------------------------------------------------------------
# Task keys
# ----------------------------------------------------------------------
class TestTaskKey:
    def test_stable(self):
        assert task_key(_task()) == task_key(_task())

    def test_distinguishes_args(self):
        assert args_digest(_task(x=1)) != args_digest(_task(x=2))

    def test_distinguishes_seed_and_name(self):
        assert task_key(_task(seed=1)) != task_key(_task(seed=2))
        assert task_key(_task(name="a")) != task_key(_task(name="b"))

    def test_kwargs_participate(self):
        a = ExperimentTask("t", _double, (), {"x": 1})
        b = ExperimentTask("t", _double, (), {"x": 2})
        assert args_digest(a) != args_digest(b)

    def test_the_commands_tasks_keep_their_keys(self, monkeypatch, capsys):
        # A journal written by an earlier version resumes only while the
        # tasks the commands build -- callable, args, RunOptions -- digest
        # exactly as they did: these keys were computed before the
        # supervised and plain paths became one call.
        from repro.cli import main as repro_main
        from repro.experiments import cli as experiments_cli
        from repro.faultlab import campaign

        built = []

        def capture(tasks, jobs=None, supervision=None):
            built.extend(tasks)
            return [None] * len(tasks)

        monkeypatch.setattr(campaign, "run_tasks", capture)
        monkeypatch.setattr(experiments_cli, "run_tasks", capture)
        assert repro_main(["faultlab", "--quick", "--json", "baseline"]) == 0
        assert repro_main(["table2", "--quick"]) == 0
        capsys.readouterr()
        assert [task_key(task) for task in built] == [
            "baseline|6210070594232202667|"
            "ccba5d221d3b0e257c8b6961cb148413e126b024e398ca6d3dc3f5d5421a3c41",
            "table2|0|5f6c95a4d614d959353dec3406d34b731ba62a24edb3bc0876f005d1124185d4",
        ]


# ----------------------------------------------------------------------
# Journal round-trip, resume, corruption handling
# ----------------------------------------------------------------------
class TestJournal:
    def test_record_and_reload(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path, meta={"campaign": "x"})
        key = task_key(_task())
        journal.record(key, {"value": 42})
        reloaded = CheckpointJournal(path, meta={"campaign": "x"})
        assert reloaded.has(key)
        assert reloaded.result(key) == {"value": 42}
        assert len(reloaded) == 1

    def test_meta_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal(path, meta={"campaign": "x", "seed": 1})
        with pytest.raises(JournalError, match="different campaign"):
            CheckpointJournal(path, meta={"campaign": "x", "seed": 2})

    def test_not_a_journal_rejected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write('{"record":"something-else"}\n')
        with pytest.raises(JournalError, match="not a resilience journal"):
            CheckpointJournal(path)

    def test_torn_final_line_dropped(self, tmp_path):
        # A journal whose last append was interrupted must still load,
        # keeping every complete entry.
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path, meta={"campaign": "x"})
        key0, key1 = task_key(_task("a")), task_key(_task("b"))
        journal.record(key0, 1)
        journal.record(key1, 2)
        with open(path) as handle:
            content = handle.read()
        with open(path, "w") as handle:
            handle.write(content[: len(content) - 9])  # tear the last entry
        reloaded = CheckpointJournal(path, meta={"campaign": "x"})
        assert reloaded.has(key0)
        assert not reloaded.has(key1)

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path, meta={})
        journal.record(task_key(_task("a")), 1)
        with open(path) as handle:
            lines = handle.read().splitlines()
        lines.insert(1, "{garbage")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt journal line"):
            CheckpointJournal(path)

    def test_non_json_result_rejected(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(JournalError, match="not JSON-serializable"):
            journal.record(task_key(_task()), object())

    def test_file_is_valid_jsonl(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path, meta={"campaign": "x"})
        journal.record(task_key(_task("a", seed=3)), [1, 2])
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0]["record"] == "resilience-journal"
        assert lines[1]["record"] == "task-result"
        assert lines[1]["name"] == "a"
        assert lines[1]["seed"] == 3


class TestShowJournal:
    """``repro resilience journal PATH`` reads; it never creates or repairs."""

    def test_missing_path_is_an_error_and_stays_missing(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        path = tmp_path / "absent.journal.jsonl"
        assert repro_main(["resilience", "journal", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert captured.out == ""
        assert not path.exists()

    def test_torn_tail_is_shown_without_being_modified(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(str(path), meta={"campaign": "x"})
        journal.record(task_key(_task("a")), 1)
        journal.record(task_key(_task("b")), 2)
        torn = path.read_bytes()[:-9]
        path.write_bytes(torn)
        assert repro_main(["resilience", "journal", str(path), "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in shown["entries"]] == ["a"]
        assert path.read_bytes() == torn


# ----------------------------------------------------------------------
# Supervisor + journal: resume semantics
# ----------------------------------------------------------------------
def _journaled(path):
    return Supervision(journal=CheckpointJournal(path))


class TestResume:
    def _tasks(self):
        return [ExperimentTask(f"t{i}", _double, (i,), seed=i) for i in range(4)]

    def test_resume_skips_completed(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        first = run_supervised(self._tasks(), jobs=2, supervision=_journaled(path))
        second = run_supervised(self._tasks(), jobs=2, supervision=_journaled(path))
        assert second.from_journal == 4
        assert second.results == first.results == [0, 2, 4, 6]

    def test_partial_journal_resumes_rest(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path)
        tasks = self._tasks()
        journal.record(task_key(tasks[0]), 0)
        journal.record(task_key(tasks[2]), 4)
        run = run_supervised(tasks, jobs=2, supervision=_journaled(path))
        assert run.from_journal == 2
        assert run.results == [0, 2, 4, 6]

    def test_changed_args_not_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        run_supervised(self._tasks(), jobs=2, supervision=_journaled(path))
        changed = [
            ExperimentTask(f"t{i}", _double, (i + 10,), seed=i) for i in range(4)
        ]
        run = run_supervised(changed, jobs=2, supervision=_journaled(path))
        assert run.from_journal == 0
        assert run.results == [20, 22, 24, 26]
