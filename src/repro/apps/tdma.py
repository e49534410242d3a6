"""TDMA packet scheduling on synchronized time (paper Section 1).

"Synchronized clocks with 100 ns precision allow packet level scheduling
of minimum sized packets at a finer granularity, which can minimize
congestion in rack-scale systems [R2C2] and in datacenter networks
[Fastpass]."

:class:`TdmaSchedule` assigns repeating slots on a shared egress;
:class:`TdmaSender` fires each frame when *its own clock estimate* says
its slot opened.  The collision/queueing accounting quantifies how clock
error eats the guard band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..network.packet import Packet, PacketNetwork
from ..sim import units
from ..sim.engine import Simulator


@dataclass(frozen=True)
class TdmaSchedule:
    """A round-robin slot plan over one shared resource."""

    senders: tuple
    slot_fs: int
    rounds: int

    def slot_start_fs(self, round_index: int, lane: int) -> int:
        return (round_index * len(self.senders) + lane) * self.slot_fs


class TdmaSender:
    """One participant firing frames at its believed slot starts."""

    def __init__(
        self,
        sim: Simulator,
        network: PacketNetwork,
        name: str,
        destination: str,
        schedule: TdmaSchedule,
        lane: int,
        clock_error_fs: int = 0,
        frame_bytes: int = 1500,
    ) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.destination = destination
        self.schedule = schedule
        self.lane = lane
        self.clock_error_fs = clock_error_fs
        self.frame_bytes = frame_bytes
        self.sent = 0

    def arm(self) -> None:
        """Schedule every transmission of this sender's lane."""
        for round_index in range(self.schedule.rounds):
            true_start = self.schedule.slot_start_fs(round_index, self.lane)
            believed = max(0, true_start + self.clock_error_fs)
            self.sim.schedule_at(max(believed, self.sim.now), self._fire, round_index)

    def _fire(self, round_index: int) -> None:
        self.network.send(
            self.name, self.destination, self.frame_bytes, "tdma",
            {"round": round_index, "lane": self.lane},
        )
        self.sent += 1


class TdmaReceiver:
    """Accounts queueing delay per received frame (collision witness)."""

    def __init__(
        self,
        sim: Simulator,
        network: PacketNetwork,
        name: str,
        uncongested_floor_fs: int,
    ) -> None:
        self.sim = sim
        self.name = name
        self.uncongested_floor_fs = uncongested_floor_fs
        self.queueing_delays_fs: List[int] = []
        network.host(name).register_handler("tdma", self._on_frame)

    def _on_frame(self, packet: Packet, first_fs: int, last_fs: int) -> None:
        transit = first_fs - packet.created_fs
        self.queueing_delays_fs.append(max(0, transit - self.uncongested_floor_fs))

    def worst_queueing_fs(self) -> int:
        return max(self.queueing_delays_fs) if self.queueing_delays_fs else 0


def run_tdma_round(
    clock_error_fs: int,
    senders: int = 3,
    rounds: int = 200,
    slot_fs: int = 1_300 * units.NS,
    frame_bytes: int = 1500,
    seed: int = 9,
    rng=None,
) -> TdmaReceiver:
    """Convenience: build a star, run a full schedule, return the receiver."""
    import random

    from ..network.topology import star

    sim = Simulator()
    network = PacketNetwork(sim, star(senders + 1))
    rng = rng or random.Random(seed)
    names = tuple(f"h{i}" for i in range(senders))
    receiver_name = f"h{senders}"
    schedule = TdmaSchedule(senders=names, slot_fs=slot_fs, rounds=rounds)
    floor = (
        2 * round((frame_bytes + 20) * 8 * units.SEC / 10e9)
        + 2 * 8 * units.TICK_10G_FS
    )
    receiver = TdmaReceiver(sim, network, receiver_name, uncongested_floor_fs=floor)
    for lane, name in enumerate(names):
        error = round(rng.uniform(-clock_error_fs, clock_error_fs))
        TdmaSender(
            sim, network, name, receiver_name, schedule, lane,
            clock_error_fs=error, frame_bytes=frame_bytes,
        ).arm()
    sim.run()
    return receiver
