"""Experiments: one module per table/figure of the paper's evaluation.

See DESIGN.md's per-experiment index for the mapping.
"""

from .._lazy import lazy_exports

_LAZY = {
    name: name
    for name in (
        "ablations", "bounds", "convergence", "extensions", "fig6_dtp", "fig6_ptp",
        "fig7_daemon", "hybrid_sync", "stability", "sweeps", "table1", "table2",
    )
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
