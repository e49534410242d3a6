"""repro.insight — offline trace analytics for DTP runs.

Consumes the PR-3 telemetry artifacts (canonical trace JSONL, metrics
snapshots, flight recordings) or a live :class:`~repro.telemetry.trace.TraceRecorder`
and answers three questions the raw streams cannot:

* *what happened* — :mod:`.timeline` rebuilds per-node counter series and
  per-port OWD/beacon/jump series purely from EV_* records;
* *why did it happen* — :mod:`.causal` walks the beacon-reception chain
  backwards from any jump or invariant violation, hop by hop;
* *was it within bounds* — :mod:`.decompose` splits each link's observed
  offset into its OWD-error and drift components and checks both against
  the paper's 2-tick budgets (``dtp.analysis`` closed forms).

:mod:`.report` aggregates all three over a campaign directory into a
deterministic markdown run report; :mod:`.cli` is ``repro insight``.
"""

from .._lazy import lazy_exports

_LAZY = {
    "explain_flight": "causal",
    "explain_jump": "causal",
    "explain_violation": "causal",
    "render_explanation": "causal",
    "DRIFT_BUDGET_TICKS": "decompose",
    "OWD_ERROR_BUDGET_TICKS": "decompose",
    "decompose_links": "decompose",
    "fault_free_end_fs": "decompose",
    "scorecard_rows": "decompose",
    "flight_summary_markdown": "report",
    "generate_insight_report": "report",
    "CAUSE_BEACON": "timeline",
    "CAUSE_JOIN": "timeline",
    "reconstruct_timeline": "timeline",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
