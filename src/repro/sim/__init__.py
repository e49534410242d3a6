"""Discrete-event simulation engine (femtosecond-resolution, deterministic)."""

from .._lazy import lazy_exports

_LAZY = {
    "Simulator": "engine",
    "RandomStreams": "randomness",
    "units": "units",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
