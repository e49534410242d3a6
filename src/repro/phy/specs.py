"""Physical-layer specifications per Ethernet speed (paper Table 2).

The paper's Table 2:

    Data Rate  Encoding  Data Width  Frequency     Period    delta
    1G         8b/10b    8 bit       125 MHz       8 ns      25
    10G        64b/66b   32 bit      156.25 MHz    6.4 ns    20
    40G        64b/66b   64 bit      625 MHz       1.6 ns    5
    100G       64b/66b   64 bit      1562.5 MHz    0.64 ns   2

``delta`` is the per-tick counter increment when a counter unit represents
0.32 ns, which lets heterogeneous-speed devices share one time base
(Section 7).  For single-speed experiments we use increment 1 and quote
offsets in native ticks, exactly like the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sim import units

#: The common counter granularity that makes all of Table 2's increments
#: integral: 0.32 ns.
COMMON_COUNTER_UNIT_FS = 320_000


@dataclass(frozen=True)
class PhySpec:
    """Static description of one Ethernet PHY generation."""

    name: str
    data_rate_gbps: int
    encoding: str
    data_width_bits: int
    frequency_hz: float
    #: PCS clock period in femtoseconds (integer, exact for these specs).
    period_fs: int
    #: Counter increment per tick at 0.32 ns granularity (Table 2 delta).
    counter_increment: int
    #: Payload bits carried per PCS block (64 for 64b/66b, 8 for 8b/10b).
    block_payload_bits: int
    #: Encoded bits on the wire per block (66 or 10).
    block_wire_bits: int

    @property
    def period_ns(self) -> float:
        return self.period_fs / units.NS

    def blocks_for_bytes(self, nbytes: int) -> int:
        """PCS blocks needed to carry ``nbytes`` of MAC-level data."""
        payload_bytes = self.block_payload_bits // 8
        return -(-nbytes // payload_bytes)


PHY_1G = PhySpec(
    name="1G",
    data_rate_gbps=1,
    encoding="8b/10b",
    data_width_bits=8,
    frequency_hz=125e6,
    period_fs=8_000_000,
    counter_increment=25,
    block_payload_bits=8,
    block_wire_bits=10,
)

PHY_10G = PhySpec(
    name="10G",
    data_rate_gbps=10,
    encoding="64b/66b",
    data_width_bits=32,
    frequency_hz=156.25e6,
    period_fs=6_400_000,
    counter_increment=20,
    block_payload_bits=64,
    block_wire_bits=66,
)

PHY_40G = PhySpec(
    name="40G",
    data_rate_gbps=40,
    encoding="64b/66b",
    data_width_bits=64,
    frequency_hz=625e6,
    period_fs=1_600_000,
    counter_increment=5,
    block_payload_bits=64,
    block_wire_bits=66,
)

PHY_100G = PhySpec(
    name="100G",
    data_rate_gbps=100,
    encoding="64b/66b",
    data_width_bits=64,
    frequency_hz=1562.5e6,
    period_fs=640_000,
    counter_increment=2,
    block_payload_bits=64,
    block_wire_bits=66,
)

SPECS: Dict[str, PhySpec] = {
    spec.name: spec for spec in (PHY_1G, PHY_10G, PHY_40G, PHY_100G)
}
