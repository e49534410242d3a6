"""A PTP slave: hardware-timestamped offset measurement plus servo.

The slave's PHC is an :class:`~repro.clocks.clock.AdjustableFrequencyClock`
driven by the host's own (skewed) oscillator.  Each Sync/Follow_Up pair
yields the master-to-slave delay sample; each Delay_Req/Delay_Resp pair
yields slave-to-master.  After transparent-clock corrections:

    ms = t2 - t1 - corr_sync        sm = t4 - t3 - corr_req
    mean_path_delay = (ms + sm) / 2       (min-filtered)
    offset_from_master = ms - mean_path_delay

The offset drives the PI servo.  Everything the paper blames for PTP's
load sensitivity lives in ``ms``/``sm`` asymmetry: queueing the TC did not
(or could not) correct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..clocks.clock import AdjustableFrequencyClock
from ..network.packet import Host, Packet, PacketNetwork
from ..sim import units
from ..sim.engine import Simulator
from . import messages as ptpmsg
from .servo import DelayFilter, PiServo


@dataclass
class SyncContext:
    """In-flight state for one Sync sequence number."""

    seq: int
    t2_fs: Optional[float] = None
    sync_correction_fs: float = 0.0
    t1_fs: Optional[float] = None


@dataclass
class OffsetRecord:
    """One servo input, kept for the evaluation plots."""

    time_fs: int
    offset_fs: float
    path_delay_fs: float


class PtpSlave:
    """One PTP client, synchronizing its PHC to the grandmaster."""

    def __init__(
        self,
        sim: Simulator,
        network: PacketNetwork,
        host_name: str,
        master_name: str,
        clock: AdjustableFrequencyClock,
        rng: random.Random,
        sync_interval_fs: int = 25 * units.MS,
        servo: Optional[PiServo] = None,
        delay_filter: Optional[DelayFilter] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host: Host = network.host(host_name)
        self.master_name = master_name
        self.clock = clock
        self.rng = rng
        self.sync_interval_fs = sync_interval_fs
        self.servo = servo or PiServo()
        self.delay_filter = delay_filter or DelayFilter()
        self.records: List[OffsetRecord] = []
        #: A disabled slave (a stopped boundary clock's) ignores all PTP
        #: traffic.
        self.enabled = True
        self._context: Optional[SyncContext] = None
        self._pending_t3: Optional[float] = None
        self._pending_req_seq: Optional[int] = None
        self._last_servo_fs: Optional[int] = None
        self.syncs_seen = 0
        self.exchanges_completed = 0
        self.host.register_handler(ptpmsg.KIND_SYNC, self._on_sync)
        self.host.register_handler(ptpmsg.KIND_FOLLOW_UP, self._on_follow_up)
        self.host.register_handler(ptpmsg.KIND_DELAY_RESP, self._on_delay_resp)
        self.host.register_tx_hook(self._on_tx)

    # ------------------------------------------------------------------
    # Sync path (master -> slave)
    # ------------------------------------------------------------------
    def _on_sync(self, packet: Packet, first_fs: int, last_fs: int) -> None:
        if not self.enabled or packet.src != self.master_name:
            return
        self.syncs_seen += 1
        self._context = SyncContext(
            seq=packet.payload["seq"],
            t2_fs=ptpmsg.quantize_timestamp(self.clock.time_at(first_fs)),
            sync_correction_fs=packet.tc_correction_fs,
        )

    def _on_follow_up(self, packet: Packet, first_fs: int, last_fs: int) -> None:
        context = self._context
        if not self.enabled or packet.src != self.master_name:
            return
        if context is None or packet.payload["seq"] != context.seq:
            return
        context.t1_fs = packet.payload["t1_fs"]
        # Kick off the delay measurement for this round, with a small
        # random delay so slaves don't synchronize their Delay_Reqs.
        jitter_fs = self.rng.randint(0, max(1, self.sync_interval_fs // 4))
        self.sim.schedule(jitter_fs, self._send_delay_req, context.seq)

    # ------------------------------------------------------------------
    # Delay path (slave -> master)
    # ------------------------------------------------------------------
    def _send_delay_req(self, seq: int) -> None:
        self._pending_req_seq = seq
        self.network.send(
            self.host.name,
            self.master_name,
            ptpmsg.DELAY_REQ_BYTES,
            ptpmsg.KIND_DELAY_REQ,
            {"seq": seq},
        )

    def _on_tx(self, packet: Packet, t_fs: int) -> None:
        if packet.kind == ptpmsg.KIND_DELAY_REQ:
            self._pending_t3 = ptpmsg.quantize_timestamp(self.clock.time_at(t_fs))

    def _on_delay_resp(self, packet: Packet, first_fs: int, last_fs: int) -> None:
        context = self._context
        if not self.enabled or packet.src != self.master_name:
            return
        if (
            context is None
            or context.t1_fs is None
            or context.t2_fs is None
            or self._pending_t3 is None
            or packet.payload.get("seq") != self._pending_req_seq
        ):
            return
        t1 = context.t1_fs
        t2 = context.t2_fs
        t3 = self._pending_t3
        t4 = packet.payload["t4_fs"]
        ms_fs = (t2 - t1) - context.sync_correction_fs
        sm_fs = (t4 - t3) - packet.payload.get("req_correction_fs", 0.0)
        raw_delay = (ms_fs + sm_fs) / 2.0
        path_delay = self.delay_filter.update(max(0.0, raw_delay))
        offset_fs = ms_fs - path_delay
        self._apply_servo(offset_fs, path_delay)
        self.exchanges_completed += 1
        self._context = None
        self._pending_t3 = None
        self._pending_req_seq = None

    # ------------------------------------------------------------------
    # Servo application
    # ------------------------------------------------------------------
    def _apply_servo(self, offset_fs: float, path_delay_fs: float) -> None:
        now = self.sim.now
        interval = (
            now - self._last_servo_fs
            if self._last_servo_fs is not None
            else self.sync_interval_fs
        )
        self._last_servo_fs = now
        action = self.servo.sample(offset_fs, max(interval, 1))
        if action.kind == "step":
            self.clock.step(now, action.value)
        else:
            self.clock.slew(now, action.value)
        self.records.append(
            OffsetRecord(time_fs=now, offset_fs=offset_fs, path_delay_fs=path_delay_fs)
        )

    def offset_to(self, reference: AdjustableFrequencyClock, t_fs: int) -> float:
        """True offset of this slave's PHC to ``reference`` at ``t_fs``."""
        return self.clock.time_at(t_fs) - reference.time_at(t_fs)
