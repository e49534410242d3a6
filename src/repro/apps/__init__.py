"""Applications on synchronized time — the paper's Section 1 motivations.

* :mod:`owd` — precise one-way delay measurement
  (``examples/owd_measurement.py``);
* :mod:`tdma` — packet-level time-division scheduling
  (``examples/tdma_scheduling.py``).
"""

from .._lazy import lazy_exports

_LAZY = {
    "OneWayDelayMeter": "owd",
    "TdmaSchedule": "tdma",
    "run_tdma_round": "tdma",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
