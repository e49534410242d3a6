"""DTP — the Datacenter Time Protocol (the paper's contribution).

Public surface:

* :class:`DtpNetwork` — build a DTP deployment over a topology and run it;
* :class:`~repro.dtp.port.DtpPort` / :class:`~repro.dtp.device.DtpDevice`
  — Algorithm 1 / Algorithm 2;
* :class:`DtpDaemon` — software access to the counter (Section 5.1);
* :class:`~repro.dtp.external.UtcMaster` / :class:`~repro.dtp.external.UtcSlave`
  — external sync (Section 5.2);
* :mod:`analysis` — the closed-form 4TD bounds of Section 3.3.
"""

from .._lazy import lazy_exports

_LAZY = {
    "BoundMonitor": "monitor",
    "DtpClockService": "service",
    "DtpDaemon": "daemon",
    "DtpNetwork": "network",
    "DtpPortConfig": "port",
    "analysis": "analysis",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
