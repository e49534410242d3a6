"""Physical cables.

The paper assumes bounded cable length (max 1000 m inside a datacenter,
typically 1-10 m to a ToR switch) and constant propagation delay of 5 ns/m
in fiber (Section 3.1).  The evaluation testbed used 10 m copper twinax,
whose delay is similar (~4.3-5 ns/m); we use 5 ns/m for both media.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import units

MAX_DATACENTER_CABLE_M = 1000.0


class CableError(ValueError):
    """Raised for invalid cable configurations."""


@dataclass(frozen=True)
class Cable:
    """A full-duplex point-to-point cable.

    ``asymmetry_fs`` models a (normally zero) difference between the two
    directions: the forward direction takes ``delay + asymmetry/2`` and the
    reverse ``delay - asymmetry/2``.  DTP's OWD measurement assumes
    symmetry, so the ablation experiments drive this knob.

    The default length (10.24 m = 51.2 ns = exactly 8 ticks at 10 GbE)
    mirrors the paper's ~10 m twinax runs while keeping the propagation
    delay an integer number of ticks — the assumption ("the delay is d
    cycles") Section 3.3's analysis makes.  Non-integer delays add up to
    one extra tick of measurement spread in the logged-offset channel;
    the ablation suite exercises arbitrary lengths.
    """

    length_m: float = 10.24
    delay_fs_per_m: int = units.FIBER_DELAY_FS_PER_M
    asymmetry_fs: int = 0

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise CableError("cable length must be positive")
        if self.length_m > MAX_DATACENTER_CABLE_M:
            raise CableError(
                f"cable of {self.length_m} m exceeds the datacenter bound "
                f"of {MAX_DATACENTER_CABLE_M} m the paper assumes"
            )

    @property
    def delay_fs(self) -> int:
        """Nominal one-way propagation delay."""
        return round(self.length_m * self.delay_fs_per_m)

    def forward_delay_fs(self) -> int:
        return self.delay_fs + self.asymmetry_fs // 2

    def reverse_delay_fs(self) -> int:
        return self.delay_fs - self.asymmetry_fs // 2
