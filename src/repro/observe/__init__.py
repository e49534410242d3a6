"""Live observability and precision SLOs (``repro.observe``).

Three layers over the fault-campaign stack:

* **Snapshot taps** (:mod:`~repro.observe.snapshots`) — periodic,
  simulated-time-keyed JSONL snapshots of run progress, invariant-checker
  state and trace-ring high-water marks, written incrementally (atomic
  rewrites) while a scenario executes.  Snapshot streams are part of the
  deterministic artifact surface: byte-identical across the scalar,
  batched and sharded backends and across ``--jobs`` layouts.
* **Health channel** (:mod:`~repro.observe.health`) — the shard
  coordinator's window-protocol progress and the resilience supervisor's
  worker states, exported through ``EV_SHARD_*`` / ``EV_SUPERVISOR_*``
  trace events and ``observe_*`` metric families.  Explicitly
  *nondeterministic* (wall-clock timestamps, scheduling-dependent
  ordering) and therefore kept out of identity diffs, exactly like the
  registry's wallclock section.
* **Precision-SLO engine** (:mod:`~repro.observe.slo`) — declarative
  precision targets (violations vs the 4TD bound, fraction of link
  observations in bound, convergence deadline, per-fault recovery
  ceilings) evaluated from mergeable fixed-bucket offset histograms with
  deterministic quantile estimates.

``repro status`` / ``repro watch`` / ``repro slo`` (see
:mod:`~repro.observe.cli`) render and evaluate all of the above from the
artifact directory alone.
"""

from .._lazy import lazy_exports

_LAZY = {
    "OffsetHistogram": "histograms",
    "ObserveProbe": "snapshots",
    "read_snapshots": "snapshots",
    "SLOError": "slo",
    "builtin_slos": "slo",
    "evaluate_slo": "slo",
    "load_slo": "slo",
    "slo_source_from_result": "slo",
    "slo_source_from_snapshots": "slo",
    "HealthRecorder": "health",
    "read_health": "health",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
