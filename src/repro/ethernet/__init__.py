"""Ethernet substrate: frame geometry and idle-cadence traffic models."""

from .._lazy import lazy_exports

_LAZY = {
    "JUMBO_FRAME": "frames",
    "MTU_FRAME": "frames",
    "SaturatedTraffic": "traffic",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
