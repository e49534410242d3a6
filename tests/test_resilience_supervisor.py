"""The task supervisor: timeouts, retries, respawn, quarantine, taxonomy."""

import os

import pytest

from repro.experiments.parallel import (
    ExperimentTask,
    default_jobs,
    run_tasks,
)
from repro.resilience import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_QUARANTINED,
    FAILURE_TIMEOUT,
    Supervision,
    SupervisorPolicy,
    backoff_slots,
    run_supervised,
)

# ----------------------------------------------------------------------
# Module-level task callables (workers need picklable functions)
# ----------------------------------------------------------------------


def _square(x, offset=0):
    return x * x + offset


def _crash_unless_sentinel(sentinel, value):
    """os._exit(1) on the first run; succeed once the sentinel exists."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(1)
    return value


def _always_crash(value):
    os._exit(1)


def _always_raise(value):
    raise ValueError(f"boom {value}")


def _raise_unless_sentinel(sentinel, value):
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        raise RuntimeError("transient")
    return value


def _hang(value):
    import time

    time.sleep(60)
    return value


def _raise_marked(marker_dir, index):
    with open(os.path.join(marker_dir, f"ran-{index}"), "w"):
        pass
    if index == 0:
        raise ValueError("first task fails")
    import time

    time.sleep(0.2)
    return index


def _tasks(n=5):
    return [ExperimentTask(f"t{i}", _square, (i,)) for i in range(n)]


# ----------------------------------------------------------------------
# Happy path: supervision must not change results
# ----------------------------------------------------------------------
class TestSupervisedHappyPath:
    def test_results_in_task_order(self):
        run = run_supervised(_tasks(), jobs=2)
        assert run.results == [i * i for i in range(5)]
        assert run.ok
        assert run.failures == []
        assert run.respawns == 0

    def test_matches_run_tasks(self):
        assert run_supervised(_tasks(), jobs=2).results == run_tasks(
            _tasks(), jobs=1
        )

    def test_named_results_ordered(self):
        named = run_supervised(_tasks(3), jobs=2).named_results()
        assert list(named) == ["t0", "t1", "t2"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_tasks(
                [ExperimentTask("a", _square, (1,)),
                 ExperimentTask("a", _square, (2,))],
                supervision=Supervision(),
            )

    def test_jobs_one_still_supervised(self):
        # jobs=1 uses a single-worker pool, so crash/hang protection holds.
        run = run_supervised(_tasks(3), jobs=1)
        assert run.results == [0, 1, 4]


# ----------------------------------------------------------------------
# Worker crash: respawn + retry (satellite: os._exit(1) mid-pool)
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def test_crash_respawns_and_retries(self, tmp_path):
        sentinel = str(tmp_path / "crash.sentinel")
        tasks = [ExperimentTask("crashy", _crash_unless_sentinel, (sentinel, 41))]
        tasks += _tasks(4)
        run = run_supervised(tasks, jobs=2, supervision=Supervision(SupervisorPolicy()))
        # The campaign survives the dead worker and returns ordered results.
        assert run.results == [41, 0, 1, 4, 9]
        assert run.ok
        assert run.respawns >= 1
        assert any(f.kind == FAILURE_CRASH for f in run.failures)

    def test_crash_results_digest_stable(self, tmp_path):
        # Two runs (each crashing once) return identical ordered results.
        outcomes = []
        for attempt in ("a", "b"):
            sentinel = str(tmp_path / f"crash-{attempt}.sentinel")
            tasks = [
                ExperimentTask("crashy", _crash_unless_sentinel, (sentinel, 7))
            ] + _tasks(4)
            outcomes.append(run_supervised(tasks, jobs=2).results)
        assert outcomes[0] == outcomes[1] == [7, 0, 1, 4, 9]

    def test_poison_crash_quarantined(self):
        tasks = [ExperimentTask("poison", _always_crash, (1,))] + _tasks(3)
        run = run_supervised(
            tasks, jobs=2, supervision=Supervision(SupervisorPolicy(max_attempts=2))
        )
        assert run.quarantined == ["poison"]
        assert run.results[0] is None
        assert run.results[1:] == [0, 1, 4]
        kinds = [f.kind for f in run.failures if f.task == "poison"]
        assert kinds.count(FAILURE_CRASH) == 2
        assert kinds[-1] == FAILURE_QUARANTINED

    def test_respawn_budget_quarantines_rest(self):
        tasks = [ExperimentTask("poison", _always_crash, (1,))]
        run = run_supervised(
            tasks, jobs=1,
            supervision=Supervision(SupervisorPolicy(max_attempts=10, max_respawns=1)),
        )
        assert run.quarantined == ["poison"]
        assert not run.ok


# ----------------------------------------------------------------------
# Exceptions and retries
# ----------------------------------------------------------------------
class TestExceptions:
    def test_transient_exception_retried(self, tmp_path):
        sentinel = str(tmp_path / "flaky.sentinel")
        tasks = [ExperimentTask("flaky", _raise_unless_sentinel, (sentinel, 5))]
        tasks += _tasks(2)
        run = run_supervised(tasks, jobs=2)
        assert run.results == [5, 0, 1]
        assert run.ok
        flaky = [f for f in run.failures if f.task == "flaky"]
        assert [f.kind for f in flaky] == [FAILURE_EXCEPTION]
        assert "transient" in flaky[0].detail

    def test_poison_exception_quarantined_with_report(self):
        tasks = [ExperimentTask("poison", _always_raise, (3,))] + _tasks(2)
        run = run_supervised(
            tasks, jobs=2, supervision=Supervision(SupervisorPolicy(max_attempts=2))
        )
        assert run.quarantined == ["poison"]
        report = run.report()
        assert report["record"] == "failure-report"
        assert report["tasks"] == 3
        assert report["completed"] == 2
        assert report["failed"] == 1
        assert report["failures_by_kind"] == {
            FAILURE_EXCEPTION: 2,
            FAILURE_QUARANTINED: 1,
        }
        assert report["quarantined"] == ["poison"]
        details = [f["detail"] for f in report["failures"]]
        assert any("ValueError: boom 3" in d for d in details)


# ----------------------------------------------------------------------
# Hangs: the wall-clock watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_hung_task_killed_and_quarantined(self):
        tasks = [ExperimentTask("hung", _hang, (7,))] + _tasks(3)
        run = run_supervised(
            tasks, jobs=2,
            supervision=Supervision(SupervisorPolicy(timeout_s=1.0, max_attempts=1)),
        )
        # The hang is contained: every other task's result is intact.
        assert run.quarantined == ["hung"]
        assert run.results[1:] == [0, 1, 4]
        kinds = [f.kind for f in run.failures if f.task == "hung"]
        assert kinds == [FAILURE_TIMEOUT, FAILURE_QUARANTINED]
        assert run.respawns >= 1


# ----------------------------------------------------------------------
# Deterministic backoff
# ----------------------------------------------------------------------
class TestBackoff:
    def test_seed_stable(self):
        policy = SupervisorPolicy(base_seed=7, max_backoff_slots=4)
        slots = [backoff_slots(policy, "task", attempt) for attempt in (1, 2, 3)]
        assert slots == [
            backoff_slots(policy, "task", attempt) for attempt in (1, 2, 3)
        ]
        assert all(0 <= s <= 4 for s in slots)

    def test_varies_with_seed_and_name(self):
        a = [
            backoff_slots(SupervisorPolicy(base_seed=s, max_backoff_slots=100),
                          "task", 1)
            for s in range(20)
        ]
        assert len(set(a)) > 1

    def test_disabled(self):
        policy = SupervisorPolicy(max_backoff_slots=0)
        assert backoff_slots(policy, "task", 1) == 0


# ----------------------------------------------------------------------
# Satellites living in experiments.parallel
# ----------------------------------------------------------------------
class TestDefaultJobs:
    def test_respects_affinity(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no sched_getaffinity on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert default_jobs() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def _raises(pid):
            raise AttributeError

        monkeypatch.setattr(os, "sched_getaffinity", _raises, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_jobs() == 5

    def test_at_least_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set())
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_jobs() >= 1


class TestRunTasksCleanup:
    def test_exception_cancels_pending_tasks(self, tmp_path):
        # Task 0 fails fast; with 2 workers and 20 queued 0.2 s tasks,
        # cancel_futures must keep most of the queue from ever running.
        marker_dir = str(tmp_path)
        tasks = [
            ExperimentTask(f"m{i}", _raise_marked, (marker_dir, i))
            for i in range(20)
        ]
        with pytest.raises(ValueError, match="first task fails"):
            run_tasks(tasks, jobs=2)
        ran = [name for name in os.listdir(marker_dir) if name.startswith("ran-")]
        assert len(ran) < 15
