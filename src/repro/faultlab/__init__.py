"""faultlab — deterministic fault-injection campaigns with invariant checking.

DTP's headline claim is a *provable* bound: peer offset <= 4T and <= 4TD
across D hops (paper Section 3.3).  This package is the machinery that
continuously measures the reproduction's correctness envelope instead of
only its figure shapes:

* :mod:`~repro.faultlab.faults` — a library of composable, seed-reproducible
  fault models (link flaps, BER bursts, oscillator glitches and runaways,
  node crash-and-restart, beacon suppression, two-faced peers, partitions).
  Every model draws its randomness from its *own* named campaign stream, so
  adding one fault never shifts another fault's schedule.
* :mod:`~repro.faultlab.invariants` — a runtime invariant checker that runs
  every beacon interval and asserts the 4TD bound for healthy node pairs,
  global-counter monotonicity after Algorithm 2's max-merge, and 53-bit
  counter-wrap codec correctness, recording each violation with its
  context.
* :mod:`~repro.faultlab.campaign` — a campaign runner executing declarative
  scenario specs (plain dicts / JSON) and producing deterministic metrics:
  per-fault recovery time, max offset excursion, time above bound.  The
  same seed always produces the byte-identical (sha256-stable) output.
  ``run_campaign`` is the one campaign entry point: it fans out over the
  parallel experiment runner, and an optional
  :class:`~repro.resilience.Supervision` makes the same call crash-safe
  and resumable.
* :mod:`~repro.faultlab.scenarios` — the built-in scenario catalogue the
  ``repro faultlab`` CLI runs.
"""

from .._lazy import lazy_exports

_LAZY = {
    "CampaignError": "campaign",
    "build_fault": "campaign",
    "build_topology": "campaign",
    "metrics_digest": "campaign",
    "render_campaign": "campaign",
    "run_campaign": "campaign",
    "run_scenario": "campaign",
    "FAULT_KINDS": "faults",
    "BeaconSuppression": "faults",
    "BerBurst": "faults",
    "FaultContext": "faults",
    "LinkFlap": "faults",
    "NodeCrash": "faults",
    "OscillatorGlitch": "faults",
    "Partition": "faults",
    "RunawayQuarantine": "faults",
    "SteppedSkew": "faults",
    "TwoFacedNode": "faults",
    "INVARIANT_MONOTONIC": "invariants",
    "INVARIANT_PAIR_BOUND": "invariants",
    "InvariantChecker": "invariants",
    "BUILTIN_SCENARIOS": "scenarios",
    "builtin_specs": "scenarios",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
