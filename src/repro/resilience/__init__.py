"""repro.resilience: crash-safe, resumable experiment execution.

The layer every long campaign runs on: a task **supervisor**
(:mod:`~repro.resilience.supervisor`) that survives worker hangs, crashes,
and poison tasks with a structured failure taxonomy, plus a **checkpoint
journal** (:mod:`~repro.resilience.journal`) that persists completed
results so a killed campaign resumes where it stopped and still produces
byte-identical artifacts.

A caller asks for both with one optional :class:`Supervision`, passed to
``run_tasks`` or ``run_campaign``; without one, neither loads this package.

See ``docs/RESILIENCE.md`` for the semantics and the on-disk formats.
"""

from .._lazy import lazy_exports

_LAZY = {
    "CheckpointJournal": "journal",
    "JournalError": "journal",
    "args_digest": "journal",
    "task_key": "journal",
    "FAILURE_TIMEOUT": "supervisor",
    "FAILURE_CRASH": "supervisor",
    "FAILURE_EXCEPTION": "supervisor",
    "FAILURE_QUARANTINED": "supervisor",
    "SupervisedRun": "supervisor",
    "Supervision": "supervisor",
    "SupervisorPolicy": "supervisor",
    "backoff_slots": "supervisor",
    "default_jobs": "supervisor",
    "run_supervised": "supervisor",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
