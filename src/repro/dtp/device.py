"""DTP-enabled network devices (paper Algorithm 2, Section 4.3).

A device (NIC or switch) owns **one oscillator** — the paper notes a
commodity switch drives all its ports from a single clock chip — and one
*global counter* ``gc``.  Each port keeps its own *local counter*; at every
tick the device computes ``gc <- max(gc + 1, {lc_i})``.  Because all local
counters tick from the same oscillator between adjustments, the continuous
rule collapses to: bump ``gc`` whenever any local counter jumps above it.
That is what ``DtpPort._apply_beacon`` (or :meth:`DtpDevice.on_local_jump`)
does, so the simulation realizes Algorithm 2 without per-tick events.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..clocks.clock import TickClock
from ..clocks.oscillator import Oscillator
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .port import DtpPort


class DtpDevice:
    """A NIC or switch participating in DTP."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        oscillator: Oscillator,
        streams: RandomStreams,
        counter_increment: int = 1,
    ) -> None:
        self.sim = sim
        self.name = name
        self.oscillator = oscillator
        self.streams = streams
        self.counter_increment = counter_increment
        #: Algorithm 2 state: the device-wide global counter.
        self.gc = TickClock(oscillator, increment=counter_increment, name=f"{name}.gc")
        self.ports: List["DtpPort"] = []
        self.powered_on_fs: Optional[int] = None

    # ------------------------------------------------------------------
    # Port management
    # ------------------------------------------------------------------
    def add_port(self, port: "DtpPort") -> None:
        self.ports.append(port)

    @property
    def is_switch(self) -> bool:
        return len(self.ports) > 1

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def global_counter(self, t_fs: int) -> int:
        """Read ``gc`` at time ``t_fs``."""
        return self.gc.counter_at(t_fs)

    def on_local_jump(self, port: "DtpPort", t_fs: int) -> bool:
        """T5 collapsed to jump events: fold a port's new ``lc`` into ``gc``."""
        return self.gc.adjust_to_max(t_fs, port.lc.counter_at(t_fs))

    def on_join(self, source_port: "DtpPort", t_fs: int, tick: int) -> None:
        """Propagate a BEACON_JOIN to all other synchronized ports.

        Paper Section 3.2 (network dynamics): when one port learns a much
        larger counter, the device adjusts ``gc`` and announces the new
        value out of every other port so the whole subnet converges.
        ``tick`` is the tick at ``t_fs``; every port of the device counts
        the one oscillator, so it is each port's current tick too.
        """
        jumped = self.gc.adjust_to_max(t_fs, source_port.lc.counter_at(t_fs))
        if not jumped:
            return
        for port in self.ports:
            if port is not source_port and port.can_transmit():
                port.send_join(tick)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "switch" if self.is_switch else "nic"
        return f"DtpDevice(name={self.name!r}, kind={kind}, ports={len(self.ports)})"
