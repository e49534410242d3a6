"""Clock substrate: oscillators, tick clocks, PHCs, and the TSC."""

from .._lazy import lazy_exports

_LAZY = {
    "ConstantSkew": "oscillator",
    "TscCounter": "tsc",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
