"""Batched beacon-interval fast path for steady-state DTP.

See :mod:`repro.fastpath.coordinator` for the execution model and the
bit-identical equivalence argument and :mod:`repro.fastpath.eligibility`
for the promotion rules.  The package is pure Python; the vectorized
cross-check of the oscillator's tick → edge-time map that the equivalence
tests run against the scalar oracle lives in ``tests/fastpath_kernels.py``.
"""

from .._lazy import lazy_exports

_LAZY = {
    "FastpathCoordinator": "coordinator",
    "direction_ineligible_reason": "eligibility",
    "static_ineligible_reason": "eligibility",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
