"""A complete PTP deployment over a packet network.

Reproduces the paper's PTP testbed (Section 6.1): a grandmaster and
clients hanging off one cut-through switch configured as a transparent
clock, hardware timestamping at every NIC, and configurable background
load.  The load is applied as fluid virtual backlogs on the egress
interfaces (see :mod:`repro.network.virtualload`), which lets idle and
loaded runs alike simulate *paper-faithful wall-clock durations* (the
sync interval is the real 1 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..clocks.clock import AdjustableFrequencyClock
from ..clocks.oscillator import Oscillator, RandomWalkSkew
from ..network.packet import PacketNetwork, Switch
from ..network.topology import Topology
from ..network.virtualload import heavy_backlog, idle_backlog, medium_backlog
from ..phy.specs import PHY_10G
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .master import PtpMaster
from .slave import PtpSlave

LOAD_IDLE = "idle"
LOAD_MEDIUM = "medium"
LOAD_HEAVY = "heavy"

_LOAD_FACTORIES = {
    LOAD_IDLE: idle_backlog,
    LOAD_MEDIUM: medium_backlog,
    LOAD_HEAVY: heavy_backlog,
}


@dataclass
class PtpConfig:
    """Deployment parameters (defaults follow the paper's testbed)."""

    sync_interval_fs: int = units.SEC  # the provider-recommended 1 Hz
    switch_mode: str = Switch.MODE_CUT_THROUGH
    transparent_clocks: bool = True
    #: Transparent-clock fidelity; the paper's observed degradation under
    #: load corresponds to the enqueue-stamped (imperfect) mode.
    tc_mode: str = Switch.TC_ENQUEUE_STAMPED
    #: Host oscillators: mean skew drawn in +/- this many ppm.
    max_mean_ppm: float = 30.0
    #: Random-walk drift step per 100 ms (ppm) — sets idle-network noise.
    drift_step_ppm: float = 0.03
    #: Initial slave clock error magnitude (fs).
    initial_error_fs: int = 200 * units.US


class PtpDeployment:
    """Grandmaster + slaves + background load over one topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        streams: RandomStreams,
        master: str,
        config: Optional[PtpConfig] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.streams = streams
        self.config = config or PtpConfig()
        self.master_name = master
        self.network = PacketNetwork(
            sim,
            topology,
            switch_mode=self.config.switch_mode,
            transparent_clocks=self.config.transparent_clocks,
            tc_mode=self.config.tc_mode,
        )
        self.clocks: Dict[str, AdjustableFrequencyClock] = {}
        self.slaves: Dict[str, PtpSlave] = {}

        host_names = topology.hosts()
        if master not in host_names:
            raise ValueError(f"master {master!r} is not a host of the topology")

        for name in host_names:
            rng = streams.stream(f"ptp/skew/{name}")
            skew = RandomWalkSkew(
                mean_ppm=rng.uniform(-self.config.max_mean_ppm, self.config.max_mean_ppm),
                step_ppm=self.config.drift_step_ppm,
                step_interval_fs=100 * units.MS,
                max_excursion_ppm=2.0,
                seed=rng.getrandbits(32),
            )
            oscillator = Oscillator(
                nominal_period_fs=PHY_10G.period_fs,
                skew=skew,
                update_interval_fs=100 * units.MS,
                name=f"phc/{name}",
            )
            clock = AdjustableFrequencyClock(oscillator, name=f"phc/{name}")
            if name != master:
                error_rng = streams.stream(f"ptp/init/{name}")
                clock.set_time(
                    0,
                    error_rng.uniform(
                        -self.config.initial_error_fs, self.config.initial_error_fs
                    ),
                )
            self.clocks[name] = clock

        slave_names = [name for name in host_names if name != master]
        self.master = PtpMaster(
            sim,
            self.network,
            master,
            self.clocks[master],
            slaves=slave_names,
            sync_interval_fs=self.config.sync_interval_fs,
        )
        for name in slave_names:
            self.slaves[name] = PtpSlave(
                sim,
                self.network,
                name,
                master,
                self.clocks[name],
                rng=streams.stream(f"ptp/slave/{name}"),
                sync_interval_fs=self.config.sync_interval_fs,
            )

    # ------------------------------------------------------------------
    # Load control
    # ------------------------------------------------------------------
    def apply_load(
        self, level: str, exclude_hosts: Optional[List[str]] = None
    ) -> None:
        """Install the paper's idle/medium/heavy load on every interface.

        Each link direction gets its own independent backlog process, which
        is what makes the two PTP paths asymmetric under load.  Interfaces
        adjacent to excluded hosts stay idle (the paper spared S11's links
        in the heavy-load run).
        """
        if level not in _LOAD_FACTORIES:
            raise ValueError(f"unknown load level {level!r}; use idle/medium/heavy")
        factory = _LOAD_FACTORIES[level]
        excluded = set(exclude_hosts or [])
        index = 0
        for node in self.network.nodes.values():
            for iface in node.interfaces.values():
                touches_excluded = (
                    node.name in excluded or iface.peer_name in excluded
                )
                rng = self.streams.stream(f"ptp/load/{index}")
                index += 1
                if level == LOAD_IDLE or touches_excluded:
                    iface.virtual_load = None
                else:
                    iface.virtual_load = factory(rng)

    # ------------------------------------------------------------------
    # Lifecycle and measurement
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.master.start()

    def true_offset_fs(self, slave: str, t_fs: Optional[int] = None) -> float:
        """Slave PHC minus master PHC at simulation time ``t_fs``."""
        t = self.sim.now if t_fs is None else t_fs
        return self.slaves[slave].offset_to(self.clocks[self.master_name], t)
