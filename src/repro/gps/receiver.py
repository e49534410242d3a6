"""GPS time receiver model (paper Section 2.4.3).

GPS gives each equipped server an independent reference with ~100 ns
practical precision [Lewandowski et al.], at the cost of a receiver, roof
antenna and cabling per server — which is why the paper dismisses it as a
datacenter-wide solution (Table 1) but uses it as the external-time anchor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..sim import units


@dataclass
class GpsReceiver:
    """A disciplined GPS timing receiver attached to one server."""

    rng: random.Random
    #: Standard deviation of the per-read error (paper: ~100 ns practical
    #: precision; a good timing receiver sits around 30-50 ns 1-sigma).
    sigma_fs: int = 40 * units.NS
    #: Fixed installation bias (antenna cable electrical length, etc.).
    bias_fs: int = 0
    #: Worst-case clipping so a single read is never absurd.
    max_error_fs: int = 150 * units.NS

    def read_fs(self, t_fs: int) -> int:
        """UTC estimate at true time ``t_fs``."""
        error = round(self.rng.gauss(0.0, self.sigma_fs))
        error = max(-self.max_error_fs, min(self.max_error_fs, error))
        return t_fs + self.bias_fs + error
