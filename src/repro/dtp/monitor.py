"""Online precision monitoring — a production watchdog over DTP.

An operator deploying DTP wants an alarm if the 4TD guarantee is ever
violated (broken cable, out-of-spec oscillator, misconfigured beacon
interval).  :class:`BoundMonitor` consumes the same LOG measurement
channel the paper's evaluation used (Section 6.2) and raises alerts when
samples leave the expected band — including a rate-of-violation view so a
single cosmic-ray flip doesn't page anyone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..sim import units
from ..telemetry.events import EV_ALARM
from .analysis import DIRECT_BOUND_TICKS
from .network import DtpNetwork


@dataclass
class Alert:
    """One bound violation."""

    time_fs: int
    link: str
    offset_ticks: int
    bound_ticks: int


class BoundMonitor:
    """Watches logged offsets on selected links and alarms on violations."""

    def __init__(
        self,
        network: DtpNetwork,
        pairs: List[Tuple[str, str]],
        bound_ticks: int = DIRECT_BOUND_TICKS,
        log_interval_fs: int = 100 * units.US,
        #: Alarm only after this many violations in the trailing window —
        #: single corrupted samples are expected at nonzero BER.
        violations_to_alarm: int = 3,
        window_samples: int = 100,
        on_alarm: Optional[Callable[[Alert], None]] = None,
    ) -> None:
        self.network = network
        self.pairs = list(pairs)
        self.bound_ticks = bound_ticks
        self.log_interval_fs = log_interval_fs
        self.violations_to_alarm = violations_to_alarm
        self.on_alarm = on_alarm
        self.alerts: List[Alert] = []
        self.samples_seen = 0
        self.alarmed_links: set = set()
        self._recent: dict = {}
        self._windows: dict = {
            f"{a}-{b}": deque(maxlen=window_samples) for a, b in pairs
        }
        # Telemetry rides along with the network's (None = disabled).
        telemetry = getattr(network, "telemetry", None)
        self._tracer = telemetry.tracer if telemetry is not None else None
        if telemetry is not None:
            registry = telemetry.registry
            self._m_samples = registry.counter(
                "monitor_log_samples_total",
                "offset_hw samples consumed by the bound monitor",
            ).labels()
            self._m_alerts = registry.counter(
                "monitor_alerts_total",
                "bound violations observed by the monitor, by link",
                labelnames=("link",),
            )
            self._m_alarmed = registry.gauge(
                "monitor_alarmed_links",
                "links currently latched in the alarmed state",
            ).labels()
        else:
            self._m_samples = None
            self._m_alerts = None
            self._m_alarmed = None
        for sender, receiver in pairs:
            self._attach(sender, receiver)
        network.sim.schedule(0, self._tick)

    def _attach(self, sender: str, receiver: str) -> None:
        port = self.network.ports[(receiver, sender)]
        link = f"{sender}-{receiver}"

        def record(offset: int, counter: int, t_fs: int, _link=link) -> None:
            self.samples_seen += 1
            if self._m_samples is not None:
                self._m_samples.value += 1
            window = self._windows[_link]
            violated = abs(offset) > self.bound_ticks
            window.append(violated)
            if violated:
                alert = Alert(
                    time_fs=t_fs,
                    link=_link,
                    offset_ticks=offset,
                    bound_ticks=self.bound_ticks,
                )
                self.alerts.append(alert)
                if self._m_alerts is not None:
                    self._m_alerts.labels(link=_link).value += 1
                if (
                    sum(window) >= self.violations_to_alarm
                    and _link not in self.alarmed_links
                ):
                    self.alarmed_links.add(_link)
                    if self._tracer is not None:
                        self._tracer.record(
                            t_fs,
                            EV_ALARM,
                            self._tracer.subject_id(_link),
                            offset,
                            self.bound_ticks,
                        )
                    if self._m_alarmed is not None:
                        self._m_alarmed.value = len(self.alarmed_links)
                    if self.on_alarm is not None:
                        self.on_alarm(alert)

        port.on_log = record

    def _tick(self) -> None:
        for sender, receiver in self.pairs:
            self.network.ports[(sender, receiver)].send_log()
        self.network.sim.schedule(self.log_interval_fs, self._tick)

    @property
    def healthy(self) -> bool:
        """No link has crossed the alarm threshold."""
        return not self.alarmed_links
