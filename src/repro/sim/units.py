"""Time and rate units for the simulator.

All simulation time is kept as **integer femtoseconds** so that clock-tick
arithmetic is exact and runs are bit-for-bit reproducible.  A 10 GbE clock
tick (6.4 ns) is exactly 6,400,000 fs, and a +/-100 ppm frequency deviation
is still resolvable to better than one part in 10^9 of a tick.
"""

from __future__ import annotations

# Base unit: 1 femtosecond.
FS = 1
PS = 1_000 * FS
NS = 1_000 * PS
US = 1_000 * NS
MS = 1_000 * US
SEC = 1_000 * MS

#: Nominal 10 GbE PCS clock period (1 / 156.25 MHz) in femtoseconds.
TICK_10G_FS = 6_400_000

#: Speed of light in an optical fiber, expressed as propagation delay.
#: The paper uses 5 ns per meter (2/3 c).
FIBER_DELAY_FS_PER_M = 5 * NS


def ppm_to_fraction(ppm: float) -> float:
    """Parts-per-million to a plain fraction (100 ppm -> 1e-4)."""
    return ppm * 1e-6


def period_fs_for_ppm(nominal_period_fs: int, ppm: float) -> int:
    """Actual period of an oscillator whose frequency deviates by ``ppm``.

    A *positive* ppm means the oscillator runs fast, i.e. its period is
    shorter than nominal.  The result is rounded to an integer femtosecond;
    at 6.4 ns nominal the rounding error is below 1.6e-7 ppm.
    """
    return max(1, round(nominal_period_fs / (1.0 + ppm_to_fraction(ppm))))
