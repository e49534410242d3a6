"""High-level clock service: the API an application would link against.

The paper's stack, bottom to top: DTP in the PHY keeps NIC counters in
lockstep; a daemon (Section 5.1) gives software cheap access to the
counter; an optional UTC mapping (Section 5.2) turns counters into wall
time.  :class:`DtpClockService` packages all three behind the calls an
application wants:

* ``get_counter()`` — the synchronized network-wide counter (monotonic);
* ``get_utc_fs()`` — wall time, once a UTC master is attached;
* ``precision_bound_ns()`` — the guaranteed end-to-end bound (4TD + 8T)
  for this network's diameter.
"""

from __future__ import annotations

from typing import Optional

from ..clocks.oscillator import ConstantSkew, SkewModel
from ..clocks.tsc import TscCounter
from ..sim import units
from .analysis import DAEMON_BOUND_TICKS, network_bound_ticks
from .daemon import DtpDaemon, PcieModel
from .external import UtcMaster, UtcSlave
from .network import DtpNetwork


class DtpClockService:
    """Per-host clock service over a synchronized DTP network."""

    def __init__(
        self,
        network: DtpNetwork,
        host: str,
        tsc_skew: Optional[SkewModel] = None,
        pcie: Optional[PcieModel] = None,
        sample_interval_fs: int = units.MS,
        smoothing_window: int = 4,
    ) -> None:
        if host not in network.devices:
            raise KeyError(f"unknown host {host!r}")
        self.network = network
        self.host = host
        self.sim = network.sim
        device = network.devices[host]
        self.tsc = TscCounter(
            skew=tsc_skew or ConstantSkew(0.0), name=f"tsc/{host}"
        )
        self.daemon = DtpDaemon(
            self.sim,
            device,
            self.tsc,
            network.streams.stream(f"service/{host}"),
            pcie=pcie,
            sample_interval_fs=sample_interval_fs,
            smoothing_window=smoothing_window,
        )
        self._utc_slave: Optional[UtcSlave] = None
        self._utc_master: Optional[UtcMaster] = None
        self.daemon.start()

    # ------------------------------------------------------------------
    # Reading time
    # ------------------------------------------------------------------
    def get_counter(self) -> int:
        """The synchronized DTP counter, via the daemon's interpolation."""
        return self.daemon.get_dtp_counter(self.sim.now)

    def get_utc_fs(self) -> Optional[int]:
        """Wall-clock estimate; None until external sync is attached."""
        if self._utc_slave is None:
            return None
        return self._utc_slave.get_utc(self.sim.now)

    # ------------------------------------------------------------------
    # Guarantees
    # ------------------------------------------------------------------
    def precision_bound_ns(self) -> float:
        """4TD + 8T for this network (paper abstract's end-to-end bound)."""
        diameter = self.network.topology.diameter_hops()
        ticks = network_bound_ticks(diameter) + DAEMON_BOUND_TICKS
        return ticks * self.network.spec.period_ns

    # ------------------------------------------------------------------
    # External synchronization wiring
    # ------------------------------------------------------------------
    def serve_utc(
        self,
        utc_error_fs: int = 0,
        broadcast_interval_fs: int = 50 * units.MS,
        utc_source=None,
    ) -> UtcMaster:
        """Make this host the network's UTC master (Section 5.2)."""
        self._utc_master = UtcMaster(
            self.sim,
            self.daemon,
            utc_error_fs=utc_error_fs,
            broadcast_interval_fs=broadcast_interval_fs,
            utc_source=utc_source,
        )
        self._utc_master.start()
        return self._utc_master

    def follow_utc(self, master_service: "DtpClockService") -> None:
        """Subscribe to another host's UTC broadcasts."""
        if master_service._utc_master is None:
            raise RuntimeError(
                f"{master_service.host!r} is not serving UTC; call serve_utc()"
            )
        self._utc_slave = UtcSlave(self.daemon)
        master_service._utc_master.subscribe(self._utc_slave)
