"""Supervised task execution: timeouts, retries, respawn, quarantine.

:func:`run_supervised` executes a list of
:class:`~repro.experiments.parallel.ExperimentTask` on a worker pool it
*supervises* rather than trusts:

* **watchdog** — each in-flight task has a wall-clock deadline; an overdue
  task's worker is killed (a hung simulation cannot be cancelled politely)
  and innocent in-flight neighbours are resubmitted without penalty;
* **respawn** — a worker that dies (``os._exit``, SIGKILL, OOM) breaks the
  whole :class:`~concurrent.futures.ProcessPoolExecutor`; the supervisor
  records a ``crash`` against every task that was in flight, builds a
  fresh pool, and carries on;
* **bounded retries** — a failed task is retried up to
  ``SupervisorPolicy.max_attempts`` times with a *deterministic* backoff:
  instead of sleeping wall-clock time (which would make runs
  irreproducible), the retry is deferred until a seed-stable number of
  other task completions have happened;
* **quarantine** — a task that exhausts its attempts is quarantined and
  reported, and the rest of the campaign completes around it.

Every terminal outcome is classified by the failure taxonomy
(:data:`FAILURE_TIMEOUT`, :data:`FAILURE_CRASH`, :data:`FAILURE_EXCEPTION`,
:data:`FAILURE_QUARANTINED`) and collected into a machine-readable report
(:meth:`SupervisedRun.report`).

Callers pass one :class:`Supervision` to
:func:`~repro.experiments.parallel.run_tasks`.  Results come back **in
task order**, exactly as unsupervised — retries, respawns, and worker
count never change any result, only wall time.  With a
:class:`~repro.resilience.journal.CheckpointJournal`, completed results
are persisted as they arrive and a restarted run resumes by skipping them.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..experiments.parallel import ExperimentTask, _invoke, default_jobs
from .journal import CheckpointJournal, task_key

if TYPE_CHECKING:
    from ..observe.health import HealthRecorder

#: Failure taxonomy: every recorded failure carries exactly one of these.
FAILURE_TIMEOUT = "timeout"
FAILURE_CRASH = "crash"
FAILURE_EXCEPTION = "exception"
FAILURE_QUARANTINED = "quarantined"

#: The failure report format version (machine-readable contract).
REPORT_VERSION = 1


class SupervisorError(RuntimeError):
    """The supervisor itself cannot proceed (not a task failure)."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for :func:`run_supervised`.

    ``timeout_s``
        Per-task wall-clock watchdog; ``None`` disables it.
    ``max_attempts``
        Failures (of any kind) a task may accumulate before quarantine.
    ``max_backoff_slots``
        Upper bound for the deterministic backoff: a retry waits for
        0..N other task completions, the exact count derived from
        ``(base_seed, task name, attempt)`` — never from the wall clock.
    ``max_respawns``
        Pool rebuilds allowed (crash or watchdog kill) before the
        supervisor gives up and quarantines everything still unfinished.
    ``base_seed``
        Seeds the backoff schedule (and nothing else).
    """

    timeout_s: Optional[float] = None
    max_attempts: int = 3
    max_backoff_slots: int = 4
    max_respawns: int = 16
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SupervisorError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise SupervisorError(
                f"timeout_s must be a positive number of seconds, got {self.timeout_s!r}"
            )


def backoff_slots(policy: SupervisorPolicy, task_name: str, attempt: int) -> int:
    """Deterministic retry deferral: completions to wait before retrying.

    Seed-stable and wall-clock-free, so two same-seed runs make identical
    scheduling decisions.
    """
    if policy.max_backoff_slots <= 0:
        return 0
    digest = hashlib.sha256(
        f"{policy.base_seed}:{task_name}:{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big") % (policy.max_backoff_slots + 1)


@dataclass(frozen=True)
class TaskFailure:
    """One failed attempt (or the terminal quarantine) of one task."""

    task: str
    kind: str
    attempt: int
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "task": self.task,
            "kind": self.kind,
            "attempt": self.attempt,
            "detail": self.detail,
        }


class _TaskState:
    __slots__ = ("index", "task", "key", "attempts")

    def __init__(self, index: int, task: ExperimentTask, key: Optional[str]):
        self.index = index
        self.task = task
        self.key = key
        self.attempts = 0


@dataclass
class SupervisedRun:
    """The outcome of :func:`run_supervised`.

    ``results[i]`` is task ``i``'s result, or ``None`` if it was
    quarantined; ``failures`` lists every failed attempt in the order the
    supervisor observed it; ``quarantined`` names the tasks that never
    succeeded.
    """

    names: List[str]
    results: List[Any]
    failures: List[TaskFailure]
    quarantined: List[str]
    respawns: int
    from_journal: int

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def named_results(self) -> Dict[str, Any]:
        """Successful results keyed by task name, in task order."""
        quarantined = set(self.quarantined)
        return {
            name: result
            for name, result in zip(self.names, self.results)
            if name not in quarantined
        }

    def report(self) -> Dict[str, object]:
        """The machine-readable failure report (canonical-JSON friendly).

        Failure entries are sorted by ``(task, attempt)`` so the report is
        stable regardless of worker count or completion order.
        """
        by_kind: Dict[str, int] = {}
        for failure in self.failures:
            by_kind[failure.kind] = by_kind.get(failure.kind, 0) + 1
        return {
            "record": "failure-report",
            "version": REPORT_VERSION,
            "tasks": len(self.names),
            "completed": len(self.names) - len(self.quarantined),
            "failed": len(self.quarantined),
            "from_journal": self.from_journal,
            "respawns": self.respawns,
            "failures_by_kind": dict(sorted(by_kind.items())),
            "failures": [
                failure.as_dict()
                for failure in sorted(
                    self.failures, key=lambda f: (f.task, f.attempt, f.kind)
                )
            ],
            "quarantined": sorted(self.quarantined),
        }


@dataclass
class Supervision:
    """How a run is supervised and, once it has run, what happened.

    ``journal`` checkpoints completed results so a rerun resumes.
    ``health`` (a :class:`~repro.observe.HealthRecorder`) receives worker
    lifecycle events; it is observational only — scheduling, results and
    the report are identical without it.  :func:`run_supervised` stores
    its outcome in ``run``, whose :meth:`~SupervisedRun.report` is the
    failure report.
    """

    policy: SupervisorPolicy = field(default_factory=SupervisorPolicy)
    journal: Optional[CheckpointJournal] = None
    health: Optional[HealthRecorder] = None
    run: Optional[SupervisedRun] = None


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully retire a pool whose workers may be hung or dead."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, AttributeError, ValueError):
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except (OSError, RuntimeError):
        pass


def run_supervised(
    tasks: Sequence[ExperimentTask],
    jobs: Optional[int] = None,
    supervision: Optional[Supervision] = None,
) -> SupervisedRun:
    """Run ``tasks`` under ``supervision``; see the module docstring.

    Reached through :func:`~repro.experiments.parallel.run_tasks`, which
    holds task names unique.  Always executes on a worker pool (even
    ``jobs=1``) so that a crashing or hanging task takes down a disposable
    worker, never the caller; with a journal, results must be
    JSON-serializable.
    """
    tasks = list(tasks)
    names = [task.name for task in tasks]
    if supervision is None:
        supervision = Supervision()
    policy, journal, health = supervision.policy, supervision.journal, supervision.health

    results: List[Any] = [None] * len(tasks)
    failures: List[TaskFailure] = []
    quarantined: List[str] = []
    from_journal = 0
    respawns = 0

    pending: deque = deque()
    for index, task in enumerate(tasks):
        key = task_key(task) if journal is not None else None
        if journal is not None and journal.has(key):
            results[index] = journal.result(key)
            from_journal += 1
        else:
            pending.append(_TaskState(index, task, key))
    if not pending:
        supervision.run = SupervisedRun(names, results, [], [], 0, from_journal)
        return supervision.run

    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    workers = max(1, min(jobs, len(pending)))

    deferred: List[tuple] = []  # (release_at_completions, sequence, state)
    sequence = 0
    completions = 0
    in_flight: Dict[Any, tuple] = {}  # future -> (state, deadline)
    pool = ProcessPoolExecutor(max_workers=workers)

    def record_success(state: _TaskState, value: Any) -> None:
        nonlocal completions
        results[state.index] = value
        if journal is not None:
            journal.record(state.key, value)
        completions += 1
        if health is not None:
            health.task_state(state.task.name, "done", state.attempts + 1)

    def quarantine(state: _TaskState, last_kind: str) -> None:
        failures.append(
            TaskFailure(
                state.task.name,
                FAILURE_QUARANTINED,
                state.attempts,
                f"quarantined after {state.attempts} failed attempts"
                f" (last failure: {last_kind})",
            )
        )
        quarantined.append(state.task.name)
        if health is not None:
            health.task_quarantine(state.task.name, last_kind, state.attempts)

    def record_failure(state: _TaskState, kind: str, detail: str) -> None:
        nonlocal completions, sequence
        state.attempts += 1
        failures.append(
            TaskFailure(state.task.name, kind, state.attempts, detail)
        )
        completions += 1
        if state.attempts >= policy.max_attempts:
            quarantine(state, kind)
            return
        slots = backoff_slots(policy, state.task.name, state.attempts)
        if health is not None:
            health.task_retry(state.task.name, state.attempts, slots)
        if slots:
            sequence += 1
            deferred.append((completions + slots, sequence, state))
        else:
            pending.append(state)

    def give_up(reason: str) -> None:
        """Respawn budget exhausted: quarantine everything unfinished."""
        for state in list(pending) + [item[2] for item in deferred]:
            state.attempts += 1
            failures.append(
                TaskFailure(state.task.name, FAILURE_CRASH, state.attempts, reason)
            )
            quarantine(state, FAILURE_CRASH)
        pending.clear()
        deferred.clear()

    def respawn_pool() -> bool:
        """Kill and rebuild the pool; False when the budget is spent."""
        nonlocal pool, respawns
        _kill_pool(pool)
        if respawns >= policy.max_respawns:
            give_up(
                f"worker pool exceeded respawn limit ({policy.max_respawns})"
            )
            return False
        respawns += 1
        pool = ProcessPoolExecutor(max_workers=workers)
        return True

    try:
        while pending or deferred or in_flight:
            if deferred:
                ready = [item for item in deferred if item[0] <= completions]
                if ready:
                    for item in sorted(ready, key=lambda it: (it[0], it[1])):
                        pending.append(item[2])
                    deferred = [
                        item for item in deferred if item[0] > completions
                    ]
                elif not pending and not in_flight:
                    # Nothing in flight can advance the completion count:
                    # release the earliest deferral instead of deadlocking.
                    deferred.sort(key=lambda it: (it[0], it[1]))
                    pending.append(deferred.pop(0)[2])

            # Capping in-flight futures at the worker count means every
            # submitted task starts immediately, so its watchdog deadline
            # can be taken at submission time.
            while pending and len(in_flight) < workers:
                state = pending.popleft()
                if health is not None:
                    health.task_state(
                        state.task.name, "running", state.attempts + 1
                    )
                future = pool.submit(_invoke, state.task)
                deadline = (
                    time.monotonic() + policy.timeout_s
                    if policy.timeout_s is not None
                    else None
                )
                in_flight[future] = (state, deadline)

            if not in_flight:
                continue

            timeout = None
            if policy.timeout_s is not None:
                earliest = min(dl for _, dl in in_flight.values())
                timeout = max(0.0, earliest - time.monotonic())
            done, _ = wait(
                list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
            )

            pool_broken = False
            for future in done:
                state, _deadline = in_flight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    record_failure(
                        state,
                        FAILURE_CRASH,
                        "worker process died while running this task"
                        " (or a pool-mate)",
                    )
                except Exception as exc:  # noqa: BLE001 — taxonomy boundary
                    record_failure(
                        state, FAILURE_EXCEPTION, f"{type(exc).__name__}: {exc}"
                    )
                else:
                    record_success(state, value)

            if pool_broken:
                # The pool is unusable; every other in-flight future will
                # raise BrokenProcessPool too.  The guilty task cannot be
                # identified, so each in-flight task is charged one crash
                # — the poison task exhausts its attempts first.
                for future, (state, _deadline) in list(in_flight.items()):
                    record_failure(
                        state,
                        FAILURE_CRASH,
                        "worker pool broke while this task was in flight",
                    )
                in_flight.clear()
                if not respawn_pool():
                    break
                continue

            if not done and policy.timeout_s is not None:
                now = time.monotonic()
                overdue = {
                    future
                    for future, (_state, deadline) in in_flight.items()
                    if deadline is not None and deadline <= now
                }
                if overdue:
                    # A hung worker cannot be cancelled — kill the pool.
                    # Overdue tasks are charged a timeout; innocents go
                    # back to the head of the queue uncharged.
                    for future in overdue:
                        state, _deadline = in_flight.pop(future)
                        record_failure(
                            state,
                            FAILURE_TIMEOUT,
                            f"exceeded {policy.timeout_s:g}s wall-clock"
                            " timeout",
                        )
                    for future, (state, _deadline) in list(in_flight.items()):
                        pending.appendleft(state)
                    in_flight.clear()
                    if not respawn_pool():
                        break
    finally:
        _kill_pool(pool)

    supervision.run = SupervisedRun(
        names, results, failures, quarantined, respawns, from_journal
    )
    return supervision.run
