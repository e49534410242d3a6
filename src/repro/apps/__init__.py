"""Applications on synchronized time — the paper's Section 1 motivations.

* :mod:`owd` — precise one-way delay measurement;
* :mod:`tdma` — packet-level time-division scheduling;
* :mod:`snapshot` — coordinated network-wide snapshots (Libra-style).
"""

from .._lazy import lazy_exports

_LAZY = {
    "OneWayDelayMeter": "owd",
    "TdmaSchedule": "tdma",
    "run_tdma_round": "tdma",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
