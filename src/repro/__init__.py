"""Reproduction of "Globally Synchronized Time via Datacenter Networks"
(Lee, Wang, Shrivastav, Weatherspoon - SIGCOMM 2016).

The package simulates the Datacenter Time Protocol (DTP) at clock-tick
granularity - oscillators, the 64b/66b PHY, CDC synchronization FIFOs,
idle-block messaging - together with the PTP/NTP/GPS baselines the paper
evaluates against.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro.sim import Simulator, RandomStreams, units
    from repro.network import paper_testbed
    from repro.dtp import DtpNetwork

    sim = Simulator()
    net = DtpNetwork(sim, paper_testbed(), RandomStreams(seed=1))
    net.start()
    sim.run_until(2 * units.MS)
    assert net.max_abs_offset() <= 4 * paper_testbed().diameter_hops()

Importing ``repro`` (or any of its packages) imports no submodule: every
package re-exports through a lazy table (:mod:`repro._lazy`).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_LAZY = {
    name: name
    for name in (
        "apps", "clocks", "dtp", "ethernet", "gps", "metrics", "network", "ntp",
        "phy", "ptp", "sim",
    )
}
__all__ = ["__version__", *_LAZY]
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
