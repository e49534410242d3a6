"""Unit tests for topologies."""

from collections import Counter

import pytest

from repro.network.link import Cable
from repro.network.topology import (
    Topology,
    TopologyError,
    chain,
    fat_tree,
    paper_testbed,
    star,
    two_level_tree,
)


class TestTopologyBasics:
    def test_add_nodes_and_links(self):
        topo = Topology()
        topo.add_host("a")
        topo.add_switch("s")
        topo.add_link("a", "s")
        assert topo.neighbors("a") == ["s"]
        assert topo.hosts() == ["a"]
        assert topo.switches() == ["s"]

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(TopologyError):
            topo.add_host("a")

    def test_unknown_kind_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_node("x", "router")

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(TopologyError):
            topo.add_link("a", "a")

    def test_link_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(TopologyError):
            topo.add_link("a", "ghost")

    def test_hop_distance(self):
        topo = chain(4)
        assert topo.hop_distance("n0", "n3") == 3
        assert topo.hop_distance("n0", "n0") == 0

    def test_hop_distance_disconnected_raises(self):
        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        with pytest.raises(TopologyError):
            topo.hop_distance("a", "b")



class TestBuilders:
    def test_chain(self):
        topo = chain(5)
        assert len(topo.nodes) == 5
        assert len(topo.edges) == 4
        assert topo.diameter_hops() == 4

    def test_chain_requires_two(self):
        with pytest.raises(TopologyError):
            chain(1)

    def test_star(self):
        topo = star(6)
        assert len(topo.hosts()) == 6
        assert topo.diameter_hops() == 2

    def test_two_level_tree(self):
        topo = two_level_tree(3, 2)
        assert len(topo.switches()) == 4
        assert len(topo.hosts()) == 6
        assert topo.diameter_hops() == 4

    def test_paper_testbed_matches_figure5(self):
        topo = paper_testbed()
        assert sorted(topo.switches()) == ["S0", "S1", "S2", "S3"]
        assert len(topo.hosts()) == 8
        # Max distance between leaves under different switches: 4 hops.
        assert topo.hop_distance("S4", "S11") == 4
        assert topo.diameter_hops() == 4

    def test_fat_tree_k4_diameter_six(self):
        topo = fat_tree(4)
        assert topo.diameter_hops() == 6
        assert len(topo.hosts()) == 16
        # 4 core + 4 pods * (2 agg + 2 edge).
        assert len(topo.switches()) == 20

    def test_fat_tree_host_count_scales(self):
        topo = fat_tree(4, hosts_per_edge_switch=1)
        assert len(topo.hosts()) == 8

    def test_fat_tree_rejects_odd_k(self):
        with pytest.raises(TopologyError):
            fat_tree(3)

    def test_fat_tree_connected(self):
        # Every node is reachable from h0, at the hop counts a k=4 fat
        # tree implies: own edge switch, then its host twin and two aggs,
        # the pod's other edge and the four cores, and so on to the
        # twelve hosts in the other three pods, six hops away.
        topo = fat_tree(4)
        distances = Counter(topo.hop_distance("h0", node) for node in topo.nodes)
        assert distances == {0: 1, 1: 1, 2: 3, 3: 5, 4: 8, 5: 6, 6: 12}

    def test_custom_cable_used(self):
        cable = Cable(length_m=3.0)
        topo = chain(2, cable)
        assert topo.edges[0].cable.length_m == 3.0
