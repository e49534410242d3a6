"""One-way delay measurement service (paper Section 1's first motivation).

"If no clock differs by more than 100 nanoseconds ... one-way delay (OWD),
which is an important metric for both network monitoring and research, can
be measured precisely."

:class:`OneWayDelayMeter` stamps probe packets with the sender's DTP
counter (read through its daemon) and subtracts at the receiver — per
packet, no RTT halving, no symmetry assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..dtp.daemon import DtpDaemon
from ..network.packet import Packet, PacketNetwork
from ..sim import units
from ..sim.engine import Simulator

KIND_OWD_PROBE = "owd_probe"
PROBE_BYTES = 128


@dataclass
class OwdSample:
    """One measured one-way delay."""

    time_fs: int
    src: str
    dst: str
    owd_fs: int
    #: Simulator ground truth, for validation.
    true_owd_fs: int


class OneWayDelayMeter:
    """Measures per-packet OWD between DTP-synchronized hosts."""

    def __init__(
        self,
        sim: Simulator,
        network: PacketNetwork,
        daemons: Dict[str, DtpDaemon],
        counter_period_fs: int = units.TICK_10G_FS,
    ) -> None:
        self.sim = sim
        self.network = network
        self.daemons = dict(daemons)
        self.counter_period_fs = counter_period_fs
        self.samples: List[OwdSample] = []
        for name in self.daemons:
            network.host(name).register_handler(KIND_OWD_PROBE, self._on_probe)
            network.host(name).register_tx_hook(self._stamp)

    def probe(self, src: str, dst: str) -> None:
        """Send one probe from ``src`` to ``dst`` (both must have daemons)."""
        if src not in self.daemons or dst not in self.daemons:
            raise KeyError("both endpoints need DTP daemons")
        self.network.send(
            src, dst, PROBE_BYTES, KIND_OWD_PROBE,
            {"tx_counter": None, "tx_fs": None},
        )

    def _stamp(self, packet: Packet, t_fs: int) -> None:
        if packet.kind != KIND_OWD_PROBE or packet.payload.get("tx_counter") is not None:
            return
        if packet.src in self.daemons:
            packet.payload["tx_counter"] = self.daemons[packet.src].get_dtp_counter(t_fs)
            packet.payload["tx_fs"] = t_fs

    def _on_probe(self, packet: Packet, first_fs: int, last_fs: int) -> None:
        tx_counter = packet.payload.get("tx_counter")
        tx_fs = packet.payload.get("tx_fs")
        if tx_counter is None or packet.dst not in self.daemons:
            return
        rx_counter = self.daemons[packet.dst].get_dtp_counter(first_fs)
        owd_fs = (rx_counter - tx_counter) * self.counter_period_fs
        self.samples.append(
            OwdSample(
                time_fs=first_fs,
                src=packet.src,
                dst=packet.dst,
                owd_fs=owd_fs,
                true_owd_fs=first_fs - tx_fs,
            )
        )
