"""Network substrate: cables, topologies, and the packet-switched model."""

from .._lazy import lazy_exports

_LAZY = {
    "Cable": "link",
    "Topology": "topology",
    "chain": "topology",
    "fat_tree": "topology",
    "paper_testbed": "topology",
    "star": "topology",
    "PacketNetwork": "packet",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
