"""PTP (IEEE 1588v2) baseline: master, slaves, servo, deployment."""

from .._lazy import lazy_exports

_LAZY = {
    "PtpDeployment": "network",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
