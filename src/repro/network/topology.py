"""Network topologies.

A :class:`Topology` is a plain undirected multigraph of named nodes
(switches and hosts) joined by cables.  Builders cover the shapes used in
the paper: the twelve-node two-level tree of Figure 5, chains for the 4TD
hop-scaling bound, stars for the PTP comparison, and k-ary fat-trees whose
six-hop diameter motivates the 153.6 ns headline number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .link import Cable

NODE_SWITCH = "switch"
NODE_HOST = "host"


class TopologyError(ValueError):
    """Raised on malformed topologies."""


@dataclass
class TopologyNode:
    name: str
    kind: str  # NODE_SWITCH or NODE_HOST


@dataclass
class TopologyEdge:
    a: str
    b: str
    cable: Cable


class Topology:
    """An undirected graph of hosts and switches."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.nodes: Dict[str, TopologyNode] = {}
        self.edges: List[TopologyEdge] = []
        self._adjacency: Dict[str, List[Tuple[str, TopologyEdge]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, kind: str) -> None:
        if name in self.nodes:
            raise TopologyError(f"duplicate node {name!r}")
        if kind not in (NODE_SWITCH, NODE_HOST):
            raise TopologyError(f"unknown node kind {kind!r}")
        self.nodes[name] = TopologyNode(name, kind)
        self._adjacency[name] = []

    def add_switch(self, name: str) -> None:
        self.add_node(name, NODE_SWITCH)

    def add_host(self, name: str) -> None:
        self.add_node(name, NODE_HOST)

    def add_link(self, a: str, b: str, cable: Optional[Cable] = None) -> TopologyEdge:
        if a not in self.nodes or b not in self.nodes:
            raise TopologyError(f"link {a!r}-{b!r} references unknown node")
        if a == b:
            raise TopologyError(f"self-loop on {a!r}")
        edge = TopologyEdge(a, b, cable or Cable())
        self.edges.append(edge)
        self._adjacency[a].append((b, edge))
        self._adjacency[b].append((a, edge))
        return edge

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbors(self, name: str) -> List[str]:
        return [peer for peer, _ in self._adjacency[name]]

    def adjacency(self, name: str) -> List[Tuple[str, TopologyEdge]]:
        return list(self._adjacency[name])

    def hosts(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.kind == NODE_HOST]

    def switches(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.kind == NODE_SWITCH]

    def hop_distance(self, a: str, b: str) -> int:
        """Shortest-path hop count between two nodes (BFS)."""
        if a not in self.nodes or b not in self.nodes:
            raise TopologyError("unknown node")
        if a == b:
            return 0
        frontier = [a]
        seen = {a}
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for peer in self.neighbors(node):
                    if peer == b:
                        return depth
                    if peer not in seen:
                        seen.add(peer)
                        next_frontier.append(peer)
            frontier = next_frontier
        raise TopologyError(f"{a!r} and {b!r} are not connected")

    def diameter_hops(self, nodes: Optional[Iterable[str]] = None) -> int:
        """Longest shortest-path distance among ``nodes`` (default: hosts)."""
        names = list(nodes) if nodes is not None else self.hosts()
        best = 0
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                best = max(best, self.hop_distance(a, b))
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(name={self.name!r}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)})"
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def chain(num_hosts: int, cable: Optional[Cable] = None) -> Topology:
    """A linear chain ``n0 - n1 - ... - n(k-1)`` with hop distance k-1.

    Used by the 4TD bound experiments, which need a directly controllable
    hop count D between the end nodes.  DTP treats every multi-port node
    identically, so the middle nodes simply act as two-port DTP devices.
    """
    if num_hosts < 2:
        raise TopologyError("a chain needs at least two hosts")
    topo = Topology(name=f"chain-{num_hosts}")
    names = [f"n{i}" for i in range(num_hosts)]
    for name in names:
        topo.add_host(name)
    for a, b in zip(names, names[1:]):
        topo.add_link(a, b, cable)
    return topo


def star(num_hosts: int, cable: Optional[Cable] = None) -> Topology:
    """``num_hosts`` hosts hanging off one switch (the PTP testbed shape)."""
    if num_hosts < 1:
        raise TopologyError("a star needs at least one host")
    topo = Topology(name=f"star-{num_hosts}")
    topo.add_switch("sw0")
    for i in range(num_hosts):
        name = f"h{i}"
        topo.add_host(name)
        topo.add_link("sw0", name, cable)
    return topo


def two_level_tree(
    branches: int,
    leaves_per_branch: int,
    cable: Optional[Cable] = None,
) -> Topology:
    """Root switch, ``branches`` switches below it, hosts below those."""
    topo = Topology(name=f"tree-{branches}x{leaves_per_branch}")
    topo.add_switch("s0")
    host_index = 0
    for b in range(1, branches + 1):
        switch = f"s{b}"
        topo.add_switch(switch)
        topo.add_link("s0", switch, cable)
        for _ in range(leaves_per_branch):
            host = f"h{host_index}"
            host_index += 1
            topo.add_host(host)
            topo.add_link(switch, host, cable)
    return topo


def paper_testbed(cable: Optional[Cable] = None) -> Topology:
    """The twelve-node deployment of Figure 5.

    S0 is the root switch; S1, S2, S3 are intermediate switches; S4..S11
    are leaf servers with DTP NICs.  Leaf assignment follows the pairs the
    paper plots: S1-{S4,S5,S6}, S2-{S7,S8}, S3-{S9,S10,S11}.  All cables
    are ~10 m (Cisco copper twinax in the paper; see Cable for why the
    default is 10.24 m exactly).
    """
    cable = cable or Cable()
    topo = Topology(name="paper-fig5")
    for name in ("S0", "S1", "S2", "S3"):
        topo.add_switch(name)
    for name in (f"S{i}" for i in range(4, 12)):
        topo.add_host(name)
    for name in ("S1", "S2", "S3"):
        topo.add_link("S0", name, cable)
    for leaf, parent in (
        ("S4", "S1"),
        ("S5", "S1"),
        ("S6", "S1"),
        ("S7", "S2"),
        ("S8", "S2"),
        ("S9", "S3"),
        ("S10", "S3"),
        ("S11", "S3"),
    ):
        topo.add_link(parent, leaf, cable)
    return topo


def fat_tree(k: int, hosts_per_edge_switch: int = 0, cable: Optional[Cable] = None) -> Topology:
    """A k-ary fat-tree [Al-Fares et al. 2008], the paper's 6-hop exemplar.

    ``k`` must be even.  There are ``(k/2)^2`` core switches, ``k`` pods
    each with ``k/2`` aggregation and ``k/2`` edge switches, and (by
    default) ``k/2`` hosts per edge switch.  The maximum host-to-host
    distance is 6 hops, which with DTP's 4TD bound gives the paper's
    153.6 ns datacenter-wide precision.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError("fat-tree requires an even k >= 2")
    half = k // 2
    hosts_per_edge = hosts_per_edge_switch or half
    topo = Topology(name=f"fat-tree-{k}")

    core = [f"core{i}" for i in range(half * half)]
    for name in core:
        topo.add_switch(name)

    host_index = 0
    for pod in range(k):
        aggs = [f"p{pod}a{i}" for i in range(half)]
        edges = [f"p{pod}e{i}" for i in range(half)]
        for name in aggs + edges:
            topo.add_switch(name)
        for a_index, agg in enumerate(aggs):
            # Each aggregation switch connects to `half` core switches.
            for j in range(half):
                topo.add_link(agg, core[a_index * half + j], cable)
            for edge in edges:
                topo.add_link(agg, edge, cable)
        for edge in edges:
            for _ in range(hosts_per_edge):
                host = f"h{host_index}"
                host_index += 1
                topo.add_host(host)
                topo.add_link(edge, host, cable)
    return topo


def clos(
    spines: int,
    leaves: int,
    hosts_per_leaf: int = 0,
    cable: Optional[Cable] = None,
) -> Topology:
    """A two-tier folded-Clos (leaf-spine) fabric.

    Every leaf switch connects to every spine switch, and (by default)
    ``spines`` hosts hang off each leaf.  Host-to-host distance is 2 hops
    under the same leaf and 4 hops across leaves, so DTP's bound is 4T·4
    fabric-wide — the modern datacenter shape between the paper's
    two-level tree (Figure 5) and the full k-ary fat-tree.  The full
    bipartite spine stage makes the port count scale as
    ``2·(spines·leaves + leaves·hosts_per_leaf)`` directions, which is
    what the batched-backend scaling scenarios lean on.
    """
    if spines < 1 or leaves < 1:
        raise TopologyError("a clos fabric needs at least one spine and leaf")
    hosts_per_leaf = hosts_per_leaf or spines
    topo = Topology(name=f"clos-{spines}x{leaves}")
    spine_names = [f"spine{i}" for i in range(spines)]
    for name in spine_names:
        topo.add_switch(name)
    host_index = 0
    for l in range(leaves):
        leaf = f"leaf{l}"
        topo.add_switch(leaf)
        for spine in spine_names:
            topo.add_link(leaf, spine, cable)
        for _ in range(hosts_per_leaf):
            host = f"h{host_index}"
            host_index += 1
            topo.add_host(host)
            topo.add_link(leaf, host, cable)
    return topo

