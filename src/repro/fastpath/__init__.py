"""Batched beacon-interval fast path for steady-state DTP.

See :mod:`repro.fastpath.coordinator` for the execution model and the
bit-identical equivalence argument and :mod:`repro.fastpath.eligibility`
for the promotion rules.  The package is pure Python; the vectorized
cross-check of the oscillator's tick → edge-time map that the equivalence
tests run against the scalar oracle lives in ``tests/fastpath_kernels.py``.
"""

from .coordinator import FastpathCoordinator
from .eligibility import direction_ineligible_reason, static_ineligible_reason

__all__ = [
    "FastpathCoordinator",
    "direction_ineligible_reason",
    "static_ineligible_reason",
]
