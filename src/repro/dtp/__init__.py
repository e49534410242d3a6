"""DTP — the Datacenter Time Protocol (the paper's contribution).

Public surface:

* :class:`DtpNetwork` — build a DTP deployment over a topology and run it;
* :class:`DtpPort` / :class:`DtpDevice` — Algorithm 1 / Algorithm 2;
* :class:`DtpDaemon` — software access to the counter (Section 5.1);
* :class:`UtcMaster` / :class:`UtcSlave` — external sync (Section 5.2);
* :mod:`analysis` — the closed-form 4TD bounds of Section 3.3.
"""

from . import analysis
from .daemon import DaemonSample, DtpDaemon, PcieModel, moving_average
from .device import DtpDevice
from .external import UtcBroadcast, UtcMaster, UtcSlave
from .hybrid import HybridSample, HybridTimeMaster, HybridTimeSlave
from .messages import (
    COUNTER_BITS,
    COUNTER_LOW_BITS,
    DtpMessage,
    MessageError,
    MessageType,
    check_parity,
    counter_high,
    counter_low,
    decode,
    encode,
    parity_counter_field,
    payload_with_parity,
    reconstruct_counter,
)
from .monitor import Alert, BoundMonitor
from .network import DtpNetwork, LoggedOffset
from .service import DtpClockService
from .spanning_tree import FollowerClock, configure_spanning_tree
from .port import (
    DEFAULT_ALPHA,
    DEFAULT_BEACON_INTERVAL_TICKS,
    DtpPort,
    DtpPortConfig,
    PortState,
    PortStats,
)

__all__ = [
    "Alert",
    "BoundMonitor",
    "COUNTER_BITS",
    "COUNTER_LOW_BITS",
    "DEFAULT_ALPHA",
    "DEFAULT_BEACON_INTERVAL_TICKS",
    "DaemonSample",
    "DtpClockService",
    "DtpDaemon",
    "DtpDevice",
    "DtpMessage",
    "DtpNetwork",
    "DtpPort",
    "DtpPortConfig",
    "FollowerClock",
    "HybridSample",
    "HybridTimeMaster",
    "HybridTimeSlave",
    "LoggedOffset",
    "configure_spanning_tree",
    "MessageError",
    "MessageType",
    "PcieModel",
    "PortState",
    "PortStats",
    "UtcBroadcast",
    "UtcMaster",
    "UtcSlave",
    "analysis",
    "check_parity",
    "counter_high",
    "counter_low",
    "decode",
    "encode",
    "moving_average",
    "parity_counter_field",
    "payload_with_parity",
    "reconstruct_counter",
]
