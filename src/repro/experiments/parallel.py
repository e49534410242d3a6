"""Parallel experiment harness: fan independent runs across processes.

Every experiment in this repo is a pure function of its arguments — each
run builds its own :class:`~repro.sim.engine.Simulator` and seeds its own
:class:`~repro.sim.randomness.RandomStreams` — so independent configs
(the commands of ``repro all``, a campaign's scenarios) can execute in
separate worker processes with **exactly** the results a serial run
produces, in the submission order, regardless of worker count or
completion order.

Two rules keep parallel runs reproducible:

* a task's callable and arguments must be picklable module-level objects
  (no lambdas, no open simulators) and must not read mutable globals;
* every task carries its randomness explicitly (a ``seed`` argument).
  For families of related runs, :func:`derive_seed` maps a stable task
  name to a well-mixed 63-bit seed, so adding or reordering tasks never
  shifts the seed of any other task.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..resilience.supervisor import Supervision


def derive_seed(base_seed: int, task_name: str) -> int:
    """A deterministic, well-mixed 63-bit seed for a named task.

    Stable across processes and Python versions (unlike ``hash``), and
    independent of task order: ``derive_seed(7, "sweep/ber=1e-9")`` is the
    same value forever.
    """
    digest = hashlib.sha256(f"{base_seed}:{task_name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of work: ``fn(*args, **kwargs)`` in a worker process.

    ``seed`` is metadata only — the callable must still receive its seed
    through ``args``/``kwargs``.  It exists so the resilience layer
    (:mod:`repro.resilience`) can key checkpoint-journal entries by
    ``(name, seed, args digest)`` without parsing the argument tuple.
    """

    name: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None


def _invoke(task: ExperimentTask) -> Any:
    return task.fn(*task.args, **task.kwargs)


def default_jobs() -> int:
    """Worker count when the caller does not specify one.

    Uses the CPU *affinity* mask where the platform exposes it, so a
    containerized or ``taskset``-pinned run (CI, cgroup-limited boxes)
    sizes its pool by the CPUs it may actually use, not by how many the
    host machine has.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux platforms
        return max(1, os.cpu_count() or 1)


def run_tasks(
    tasks: Sequence[ExperimentTask],
    jobs: Optional[int] = None,
    supervision: Optional[Supervision] = None,
) -> List[Any]:
    """Run ``tasks`` (unique names) and return their results **in task order**.

    ``jobs=None`` uses one worker per CPU; ``jobs<=1`` (or a single task)
    runs serially in-process, which is byte-for-byte equivalent — the
    parallel path only changes wall time, never results.  The first
    failure cancels every task not yet started and propagates.

    With a :class:`~repro.resilience.supervisor.Supervision` the tasks run
    on a supervised pool instead (even at ``jobs=1``): failures are
    retried or quarantined rather than raised, a quarantined task's result
    is ``None``, and ``supervision.run`` holds the outcome and its failure
    report.
    """
    tasks = list(tasks)
    names = [task.name for task in tasks]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate task names: {sorted(names)}")
    if supervision is not None:
        from ..resilience.supervisor import run_supervised

        return run_supervised(tasks, jobs, supervision).results
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(tasks) <= 1:
        return [_invoke(task) for task in tasks]
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # One future per task preserves submission order without chunking
        # (a chunk would serialize every task behind its slowest member).
        futures = [pool.submit(_invoke, task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            # First failure: drop every not-yet-started task instead of
            # letting the rest of a doomed campaign run to completion
            # behind the exception.  Already-running workers finish their
            # current task during executor shutdown.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
