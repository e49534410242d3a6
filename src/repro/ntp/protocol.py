"""NTP-style synchronization over the packet network (paper Section 2.4.1).

NTP exchanges four timestamps per poll:

    t1 (client TX, software)  t2 (server RX)  t3 (server TX)  t4 (client RX)
    delay  = (t4 - t1) - (t3 - t2)
    offset = ((t2 - t1) + (t3 - t4)) / 2

Unlike PTP, every timestamp is taken **in software**, so each one carries
network-stack jitter (system calls, kernel buffering, interrupts) — the
paper's Section 2.3.2 error source.  That jitter, not path delay itself,
is why NTP bottoms out at tens of microseconds in a LAN.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..clocks.clock import AdjustableFrequencyClock
from ..network.packet import Host, Packet, PacketNetwork
from ..sim import units
from ..sim.engine import Simulator
from ..ptp.servo import PiServo

KIND_NTP_REQUEST = "ntp_request"
KIND_NTP_RESPONSE = "ntp_response"
NTP_PACKET_BYTES = 90


@dataclass
class StackJitterModel:
    """Software timestamping error: base latency plus heavy-tailed jitter."""

    base_fs: int = 5 * units.US
    jitter_fs: int = 20 * units.US
    spike_probability: float = 0.05
    spike_mean_fs: int = 100 * units.US

    def sample(self, rng: random.Random) -> int:
        latency = self.base_fs + rng.randint(0, self.jitter_fs)
        if rng.random() < self.spike_probability:
            latency += round(rng.expovariate(1.0 / self.spike_mean_fs))
        return latency


@dataclass
class NtpSample:
    """One completed poll."""

    time_fs: int
    offset_fs: float
    delay_fs: float


class NtpServer:
    """A stratum-1-ish server stamping requests with its own clock."""

    def __init__(
        self,
        sim: Simulator,
        network: PacketNetwork,
        host_name: str,
        clock: AdjustableFrequencyClock,
        rng: random.Random,
        stack: Optional[StackJitterModel] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host: Host = network.host(host_name)
        self.clock = clock
        self.rng = rng
        self.stack = stack or StackJitterModel()
        self.requests_served = 0
        self.host.register_handler(KIND_NTP_REQUEST, self._on_request)

    def _on_request(self, packet: Packet, first_fs: int, last_fs: int) -> None:
        # t2: the daemon reads the clock only after the stack delivers the
        # datagram; t3: a further stack delay before the reply hits the wire.
        t2_read_fs = self.sim.now + self.stack.sample(self.rng)
        self.sim.schedule_at(t2_read_fs, self._reply, packet, t2_read_fs)

    def _reply(self, packet: Packet, t2_read_fs: int) -> None:
        t2 = self.clock.time_at(t2_read_fs)
        t3_read_fs = self.sim.now + self.stack.sample(self.rng)
        t3 = self.clock.time_at(self.sim.now)
        self.requests_served += 1
        self.sim.schedule_at(
            t3_read_fs,
            self.network.send,
            self.host.name,
            packet.src,
            NTP_PACKET_BYTES,
            KIND_NTP_RESPONSE,
            {"t1_fs": packet.payload["t1_fs"], "t2_fs": t2, "t3_fs": t3},
        )


class NtpClient:
    """Polls a server and disciplines a software clock."""

    def __init__(
        self,
        sim: Simulator,
        network: PacketNetwork,
        host_name: str,
        server_name: str,
        clock: AdjustableFrequencyClock,
        rng: random.Random,
        poll_interval_fs: int = 16 * units.SEC,
        stack: Optional[StackJitterModel] = None,
        servo: Optional[PiServo] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host: Host = network.host(host_name)
        self.server_name = server_name
        self.clock = clock
        self.rng = rng
        self.poll_interval_fs = poll_interval_fs
        self.stack = stack or StackJitterModel()
        self.servo = servo or PiServo(
            kp=0.3,
            ki=0.05,
            step_threshold_fs=100 * units.US,
            panic_threshold_fs=100 * units.MS,
        )
        #: Popcorn-spike suppression (as in ntpd): a single offset that
        #: leaps away from the previous one is suppressed once; if the next
        #: sample agrees, it is accepted (a genuine ramp, not a spike).
        #: Median/min filters were tried and rejected here — any filter
        #: that reuses *old* offsets re-applies corrections the servo
        #: already made and destabilizes the loop.
        self._last_offset: Optional[float] = None
        self._suppressed_last = False
        self.spike_clip_fs: float = 60 * units.US
        self.samples: List[NtpSample] = []
        self._running = False
        self._last_servo_fs: Optional[int] = None
        self.host.register_handler(KIND_NTP_RESPONSE, self._on_response)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule(0, self._poll)

    def stop(self) -> None:
        self._running = False

    def _poll(self) -> None:
        if not self._running:
            return
        # t1 is stamped in software *before* the datagram reaches the wire.
        t1 = self.clock.time_at(self.sim.now)
        send_fs = self.sim.now + self.stack.sample(self.rng)
        self.sim.schedule_at(
            send_fs,
            self.network.send,
            self.host.name,
            self.server_name,
            NTP_PACKET_BYTES,
            KIND_NTP_REQUEST,
            {"t1_fs": t1},
        )
        self.sim.schedule(self.poll_interval_fs, self._poll)

    def _on_response(self, packet: Packet, first_fs: int, last_fs: int) -> None:
        # t4 is stamped after the stack hands the datagram to the daemon.
        t4_read_fs = self.sim.now + self.stack.sample(self.rng)
        self.sim.schedule_at(t4_read_fs, self._complete, packet, t4_read_fs)

    def _complete(self, packet: Packet, t4_read_fs: int) -> None:
        t1 = packet.payload["t1_fs"]
        t2 = packet.payload["t2_fs"]
        t3 = packet.payload["t3_fs"]
        t4 = self.clock.time_at(t4_read_fs)
        delay = (t4 - t1) - (t3 - t2)
        raw_offset = ((t2 - t1) + (t3 - t4)) / 2.0
        offset = self._filter_offset(raw_offset)
        now = self.sim.now
        interval = (
            now - self._last_servo_fs
            if self._last_servo_fs is not None
            else self.poll_interval_fs
        )
        self._last_servo_fs = now
        action = self.servo.sample(-offset, max(interval, 1))
        # NTP's offset convention is (server - client); the servo takes
        # (client - server), hence the sign flip above.
        if action.kind == "step":
            self.clock.step(now, action.value)
        else:
            self.clock.slew(now, action.value)
        self.samples.append(NtpSample(time_fs=now, offset_fs=offset, delay_fs=delay))

    def _filter_offset(self, raw_offset: float) -> float:
        previous = self._last_offset
        is_spike = (
            previous is not None
            and abs(raw_offset - previous) > self.spike_clip_fs
            and not self._suppressed_last
        )
        if is_spike:
            # Hold the previous value once; a repeat is believed.
            self._suppressed_last = True
            return previous
        self._suppressed_last = False
        self._last_offset = raw_offset
        return raw_offset

    def offset_to(self, reference: AdjustableFrequencyClock, t_fs: int) -> float:
        """True offset of this client's clock to ``reference``."""
        return self.clock.time_at(t_fs) - reference.time_at(t_fs)
