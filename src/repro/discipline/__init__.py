"""repro.discipline: pluggable clock-discipline controllers and the racelab.

The paper's evaluation hard-wires one controller per protocol: PTP slaves
run the PI servo in :mod:`repro.ptp.servo`, NTP clients reuse it with
softer gains, and the DTP daemon (:mod:`repro.dtp.daemon`) re-anchors an
interpolation on every PCIe read.  This package extracts the common shape
of all three — *observe a noisy offset sample, emit a correction* — into a
:class:`~repro.discipline.base.Discipline` interface, re-hosts the existing
controllers behind it, and adds two competitors from the literature:

* :class:`~repro.discipline.skewless.SkewlessDiscipline` — Mallada et
  al.'s continuous-rate controller (arXiv:1208.5703): no phase steps ever,
  with a provable gain-stability region documented in the module;
* :class:`~repro.discipline.congestion.CongestionAssistedDiscipline` —
  a congestion-marking-assisted PI (after Deshpande et al.): queue
  occupancy marks identify delay-inflated samples, which are debiased by
  the excess over the delay floor and down-weighted.

:mod:`repro.discipline.racelab` races any set of disciplines head-to-head
over identical faultlab scenarios — same seeds, same fault streams, same
telemetry rings — and renders a deterministic report ranking them per
scenario on max offset, convergence time, and time above a bound.  See
``docs/DISCIPLINE.md`` for the interface contract and a CLI walkthrough.
"""

from .._lazy import lazy_exports

_LAZY = {
    "Observation": "base",
    "build_discipline": "base",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
