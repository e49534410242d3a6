"""Deterministic PHY pipeline latencies and the DTP message path.

Everything between "the control logic decides to send" and "the peer's
control logic sees the message" is:

    TX pipeline (deterministic ticks of the sender's clock)
      -> wire propagation (constant, 5 ns/m)
      -> RX sampling at the receiver's next clock edge   (0..1 tick)
      -> CDC synchronization FIFO                        (0..1 tick, random)
      -> RX pipeline (deterministic ticks of the receiver's clock)

The paper measured one-way delays of 43-45 cycles (~280 ns) over 10 m
copper on the DE5-Net prototype; 10 m of cable is only ~8 ticks, so the
PCS/PMA pipelines account for roughly 36 ticks.  The defaults below split
that evenly and reproduce the measured OWD.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PhyLatencyConfig:
    """Deterministic pipeline depths, in clock ticks."""

    tx_pipeline_ticks: int = 18
    rx_pipeline_ticks: int = 18

    def __post_init__(self) -> None:
        if self.tx_pipeline_ticks < 0 or self.rx_pipeline_ticks < 0:
            raise ValueError("pipeline depths must be non-negative")

