"""Named, pre-configured simulation scenarios.

Examples, tests and downstream users keep rebuilding the same handful of
setups (the Figure 5 testbed under load, a loaded fat-tree, a worst-case
pair, ...).  This module packages them behind one factory so a scenario is
one line::

    from repro.scenarios import build, SCENARIOS
    scenario = build("paper-testbed-loaded", seed=7)
    scenario.sim.run_until(2 * units.MS)
    assert scenario.dtp.max_abs_offset() <= scenario.offset_bound_ticks
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .clocks.oscillator import ConstantSkew
from .dtp.network import DtpNetwork
from .dtp.port import DtpPortConfig
from .ethernet.frames import JUMBO_FRAME, MTU_FRAME
from .ethernet.traffic import SaturatedTraffic
from .network.topology import Topology, chain, clos, fat_tree, paper_testbed, star
from .sim import units
from .sim.engine import Simulator
from .sim.randomness import RandomStreams


@dataclass
class Scenario:
    """A ready-to-run simulation bundle."""

    name: str
    sim: Simulator
    streams: RandomStreams
    topology: Topology
    dtp: DtpNetwork
    #: The 4TD bound for this topology's host diameter, in ticks.
    offset_bound_ticks: int
    description: str = ""

    def run_and_measure(self, duration_fs: int, warmup_fs: int = units.MS) -> int:
        """Run to ``duration_fs`` and return the worst host-pair offset."""
        self.sim.run_until(max(warmup_fs, self.sim.now))
        worst = 0
        t = self.sim.now
        while t < duration_fs:
            t += 20 * units.US
            self.sim.run_until(t)
            worst = max(worst, self.dtp.max_abs_offset(self.topology.hosts(), t))
        return worst


def _start_loaded(network: DtpNetwork, frame) -> None:
    network.start()
    network.install_traffic(
        lambda index, direction: SaturatedTraffic(frame, phase=index * 31),
        start_tick=20_000,
    )


def _worst_case_pair(sim: Simulator, streams: RandomStreams, backend: str) -> Scenario:
    topology = chain(2)
    network = DtpNetwork(
        sim, topology, streams,
        skews={"n0": ConstantSkew(100.0), "n1": ConstantSkew(-100.0)},
        backend=backend,
    )
    network.start()
    return Scenario(
        name="worst-case-pair",
        sim=sim, streams=streams, topology=topology, dtp=network,
        offset_bound_ticks=4,
        description="two nodes at the IEEE +/-100 ppm extremes",
    )


def _paper_testbed_idle(sim: Simulator, streams: RandomStreams, backend: str) -> Scenario:
    topology = paper_testbed()
    network = DtpNetwork(sim, topology, streams, backend=backend)
    network.start()
    return Scenario(
        name="paper-testbed-idle",
        sim=sim, streams=streams, topology=topology, dtp=network,
        offset_bound_ticks=4 * topology.diameter_hops(),
        description="the twelve-node Figure 5 deployment, idle links",
    )


def _paper_testbed_loaded(sim: Simulator, streams: RandomStreams, backend: str) -> Scenario:
    topology = paper_testbed()
    network = DtpNetwork(sim, topology, streams, backend=backend)
    _start_loaded(network, MTU_FRAME)
    return Scenario(
        name="paper-testbed-loaded",
        sim=sim, streams=streams, topology=topology, dtp=network,
        offset_bound_ticks=4 * topology.diameter_hops(),
        description="Figure 5 deployment, every link saturated with MTU frames",
    )


def _fat_tree_loaded(sim: Simulator, streams: RandomStreams, backend: str) -> Scenario:
    topology = fat_tree(4, hosts_per_edge_switch=1)
    network = DtpNetwork(sim, topology, streams, backend=backend)
    _start_loaded(network, JUMBO_FRAME)
    return Scenario(
        name="fat-tree-loaded",
        sim=sim, streams=streams, topology=topology, dtp=network,
        offset_bound_ticks=4 * topology.diameter_hops(),
        description="k=4 fat-tree (6-hop diameter), jumbo-saturated",
    )


def _rack(sim: Simulator, streams: RandomStreams, backend: str) -> Scenario:
    topology = star(8)
    network = DtpNetwork(
        sim, topology, streams,
        config=DtpPortConfig(beacon_interval_ticks=1200),
        backend=backend,
    )
    network.start()
    return Scenario(
        name="rack",
        sim=sim, streams=streams, topology=topology, dtp=network,
        offset_bound_ticks=8,
        description="one ToR switch with eight servers, relaxed beacons",
    )


def _clos_fabric(sim: Simulator, streams: RandomStreams, backend: str) -> Scenario:
    topology = clos(4, 8)
    network = DtpNetwork(sim, topology, streams, backend=backend)
    network.start()
    return Scenario(
        name="clos-fabric",
        sim=sim, streams=streams, topology=topology, dtp=network,
        offset_bound_ticks=4 * topology.diameter_hops(),
        description="4-spine, 8-leaf folded Clos, 44 devices / 128 port "
        "directions — the batched-backend scaling workload",
    )


SCENARIOS: Dict[str, Callable[[Simulator, RandomStreams, str], Scenario]] = {
    "worst-case-pair": _worst_case_pair,
    "paper-testbed-idle": _paper_testbed_idle,
    "paper-testbed-loaded": _paper_testbed_loaded,
    "fat-tree-loaded": _fat_tree_loaded,
    "rack": _rack,
    "clos-fabric": _clos_fabric,
}


def build(name: str, seed: int = 0, backend: Optional[str] = None) -> Scenario:
    """Instantiate a named scenario with its own simulator and seed.

    ``backend`` is :class:`DtpNetwork`'s (default: its
    ``DEFAULT_BACKEND``, the :mod:`repro.fastpath` coordinator); every
    measurement is byte-identical on ``"scalar"``, steady-state intervals
    just cost more wall clock there.
    """
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
    if backend == "sharded":
        # These scenarios hand back a live (sim, network) pair for the
        # caller to drive interactively — there is no single process to
        # hand back under the sharded backend.  The spec-driven faultlab
        # fabric scenarios cover the parallel regime instead.
        raise ValueError(
            "backend='sharded' runs spec-driven scenarios only; use "
            "'repro faultlab --backend sharded' (e.g. the clos-fabric / "
            "fat-tree-k8 fabric scenarios, see docs/SHARDING.md)"
        )
    sim = Simulator()
    streams = RandomStreams(seed)
    return factory(sim, streams, backend)
