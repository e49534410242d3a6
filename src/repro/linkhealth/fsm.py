"""Per-link recovery FSM: detection, backoff, rejoin (docs/LINKHEALTH.md).

One :class:`LinkSupervisor` per topology edge runs the deterministic
state machine::

            silence / BER / LOS             backoff timer
    UP ------------------------------> DOWN ------------> RECONNECTING
     ^  \\                               ^                    |   |
     |   '--> DEGRADED --(persists)-----'        (gate still |   | gate free:
     |         ^   | (clears)                       held) <--'   | release hold
     |         '---'                                             v
     '------- RESYNC <-------------------------------------------'
        (N consecutive clean beacon intervals, then the explicit
         quarantine-release handshake with the InvariantChecker)

Detection is window-based and runs on a per-edge *watchdog*: a single
self-rescheduling simulator event on the a-side device's oscillator tick
grid, every ``watchdog_beacons`` beacon intervals.  Each tick samples
both directions' :class:`PortStatsSignal` counter deltas —
zero units in a window is SpaceWire-style disconnect (silence), a burst
of errors is a hi_ber-style degrade window.  All decisions consume only
monotone counter deltas and named-stream RNG draws, so every backend
(scalar, batched, sharded) replays the identical transition sequence.

The supervisor's gate hold is the key recovery invariant: once DOWN is
entered the FSM claims the link at the :class:`~repro.linkhealth.gate.
LinkGate`, so a fault model's heal cannot re-raise the link behind the
FSM's back — the link physically comes up exactly when a reconnect
attempt finds no foreign claims and releases the hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..telemetry.events import (
    EV_LINK_RECONNECT,
    EV_LINK_RELEASE,
    EV_LINK_RESYNC,
    EV_LINK_STATE,
)
from .gate import link_key

# ----------------------------------------------------------------------
# FSM state and cause codes (also the EV_LINK_STATE ``a``/``b`` values).
# ----------------------------------------------------------------------
LINK_UP = 0
LINK_DEGRADED = 1
LINK_DOWN = 2
LINK_RECONNECTING = 3
LINK_RESYNC = 4

LINK_STATE_NAMES = {
    LINK_UP: "up",
    LINK_DEGRADED: "degraded",
    LINK_DOWN: "down",
    LINK_RECONNECTING: "reconnecting",
    LINK_RESYNC: "resync",
}

CAUSE_NONE = 0
CAUSE_SILENCE = 1
CAUSE_BER = 2
CAUSE_SIGNAL_LOSS = 3
CAUSE_ADMIN = 4
CAUSE_PEER = 5

CAUSE_NAMES = {
    CAUSE_NONE: "none",
    CAUSE_SILENCE: "silence",
    CAUSE_BER: "ber",
    CAUSE_SIGNAL_LOSS: "signal-loss",
    CAUSE_ADMIN: "admin",
    CAUSE_PEER: "peer",
}


@dataclass
class LinkHealthConfig:
    """Tunables of the supervision subsystem (times in femtoseconds)."""

    #: Watchdog window length in beacon intervals.  Zero received
    #: beacons within one window is a disconnect (silence timeout).
    watchdog_beacons: int = 4
    #: Errors (on-wire losses + out-of-range rejects) within one window
    #: that make it a *degrade* window.
    degrade_threshold: int = 4
    #: Consecutive degrade windows that take the link DOWN (cause ber).
    degraded_windows: int = 3
    #: Consecutive clean windows (both directions, both synchronized)
    #: required in RESYNC before the quarantine-release handshake.
    resync_clean_intervals: int = 3
    #: Watchdog windows allowed in RESYNC before the attempt is declared
    #: failed (back to DOWN with doubled backoff).
    resync_timeout_windows: int = 8
    #: Reconnect backoff: first delay, cap, and uniform jitter span.
    #: Defaults sized for the 10G beacon interval (200 ticks = 1.28 us):
    #: base is one beacon interval, capped after five doublings.
    backoff_base_fs: int = 1_280_000_000
    backoff_max_fs: int = 40_960_000_000
    backoff_jitter_fs: int = 64_000_000


def linkhealth_config_from_value(value) -> LinkHealthConfig:
    """Build a config from a scenario-spec value (True or override dict)."""
    if value is True:
        return LinkHealthConfig()
    if isinstance(value, LinkHealthConfig):
        return value
    if isinstance(value, dict):
        return LinkHealthConfig(**value)
    raise TypeError(f"bad linkhealth spec value {value!r}")


#: ``DirectionHealth.assess`` verdict codes (ints: the watchdog compares
#: them every window, and integer compares beat string compares there).
VERDICT_CLEAN = 0
VERDICT_DEGRADED = 1
VERDICT_DOWN = 2


class PortStatsSignal:
    """The two monotone counters of one receive direction of a port.

    Units are messages of ``unit_type`` received (BEACON by default — the
    periodic heartbeat whose silence means disconnect); errors fold
    together on-wire losses and out-of-range rejects (the two observable
    symptoms of a degrading link in the timing model).  Counter *cells*
    are re-read from the stats dict on every call: binding a telemetry
    registry replaces them, so caching cell objects here would silently
    read stale zeros.
    """

    __slots__ = ("port", "unit_type")

    def __init__(self, port, unit_type: str = "BEACON") -> None:
        self.port = port
        self.unit_type = unit_type

    def counts(self) -> Tuple[int, int]:
        """``(units, errors)`` in one stats lookup: this runs once per
        watchdog window per direction, the supervision hot path."""
        stats = self.port.stats
        cell = stats._received.get(self.unit_type)
        units = int(cell.value) if cell is not None else 0
        errors = int(
            stats._lost_on_wire.value + stats._rejected["out_of_range"].value
        )
        return units, errors


class DirectionHealth:
    """Window-delta detector over one receive direction of a link."""

    __slots__ = (
        "supervisor",
        "rx_port",
        "signal",
        "pending_cause",
        "cause",
        "_last_units",
        "_last_errors",
        "_degraded_run",
        "_degrade_threshold",
        "_degraded_windows",
    )

    def __init__(self, supervisor: "LinkSupervisor", rx_port) -> None:
        self.supervisor = supervisor
        self.rx_port = rx_port
        self.signal = PortStatsSignal(rx_port)
        #: Cause hint set by gate notifications (admin down, LOS) so the
        #: watchdog labels the disconnect it detects with its true cause.
        self.pending_cause = CAUSE_NONE
        #: Cause of the most recent non-clean verdict (read only after
        #: :meth:`assess` returned ``VERDICT_DOWN`` / ``VERDICT_DEGRADED``).
        self.cause = CAUSE_NONE
        self._last_units = 0
        self._last_errors = 0
        self._degraded_run = 0
        # Config is immutable for the run; snapshot the two thresholds
        # the per-window hot path consults.
        self._degrade_threshold = supervisor.config.degrade_threshold
        self._degraded_windows = supervisor.config.degraded_windows

    def rebase(self) -> None:
        """Restart window accounting from the current counter values."""
        self._last_units, self._last_errors = self.signal.counts()
        self._degraded_run = 0

    def assess(self) -> int:
        """Close the current window; returns a ``VERDICT_*`` code.

        ``VERDICT_DOWN`` (silence or persistent degrade) and
        ``VERDICT_DEGRADED`` (one bad window) leave their cause in
        :attr:`cause`; ``VERDICT_CLEAN`` means a healthy window.
        """
        units, errors = self.signal.counts()
        delta_units = units - self._last_units
        delta_errors = errors - self._last_errors
        self._last_units = units
        self._last_errors = errors
        if delta_units == 0:
            self._degraded_run = 0
            self.cause = self.pending_cause or CAUSE_SILENCE
            return VERDICT_DOWN
        if delta_errors >= self._degrade_threshold:
            self._degraded_run += 1
            if self._degraded_run >= self._degraded_windows:
                self.cause = self.pending_cause or CAUSE_BER
                return VERDICT_DOWN
            self.cause = CAUSE_BER
            return VERDICT_DEGRADED
        self._degraded_run = 0
        return VERDICT_CLEAN


class LinkSupervisor:
    """Recovery FSM for one undirected link."""

    def __init__(self, manager: "LinkHealthManager", a: str, b: str) -> None:
        self.manager = manager
        self.a = a
        self.b = b
        self.link = f"{a}-{b}"
        self.claim = f"linkhealth:{self.link}"
        self.config = manager.config
        network = manager.network
        self.sim = network.sim
        self.port_ab = network.ports[(a, b)]
        self.port_ba = network.ports[(b, a)]
        #: Direction a->b is received by the b-side port, and vice versa.
        self.dir_ab = DirectionHealth(self, self.port_ba)
        self.dir_ba = DirectionHealth(self, self.port_ab)
        #: Watchdog grid: the a-side oscillator's tick grid (per-device
        #: skew keeps per-edge tick times distinct across shards).
        self._osc = self.port_ab.osc
        self._watchdog_ticks = (
            self.config.watchdog_beacons
            * self.port_ab.config.beacon_interval_ticks
        )
        self.state = LINK_UP
        #: Sharded backend: a supervisor whose endpoints span shards is
        #: dormant — it constructs (subjects, metric cells) but never
        #: schedules or emits (see docs/LINKHEALTH.md, backend notes).
        self.dormant = False
        self.attempt = 0
        self._backoff_fs = self.config.backoff_base_fs
        self._clean = 0
        self._resync_windows = 0
        self._watchdog_armed = False
        #: Oscillator tick index of the next watchdog edge.  The watchdog
        #: always fires exactly on its own grid, so rearming from inside
        #: a tick is pure index arithmetic — no ``ticks_at`` query.
        self._next_watchdog_tick = 0
        self._reconnect_event = None
        self._rng = None
        # Lifetime counters (the scenario result's "linkhealth" section).
        self.downs = 0
        self.reconnect_attempts = 0
        self.resyncs = 0
        self.releases = 0
        # Telemetry: the trace subject is interned at construction time
        # (the sharded recorder freezes its subject table afterwards) and
        # metric label cells are created eagerly in edge order.
        telemetry = network.telemetry
        self._tracer = telemetry.tracer if telemetry is not None else None
        self._sid = (
            -1 if self._tracer is None
            else self._tracer.subject_id(f"link/{self.link}")
        )
        self._transition_cells: Optional[Dict[int, object]] = None
        self._attempt_cell = None
        self._release_cell = None
        if telemetry is not None:
            families = manager.metric_families
            self._transition_cells = {
                code: families["transitions"].labels(link=self.link, state=name)
                for code, name in sorted(LINK_STATE_NAMES.items())
            }
            self._attempt_cell = families["attempts"].labels(link=self.link)
            self._release_cell = families["releases"].labels(link=self.link)

    # ------------------------------------------------------------------
    # Port hooks (called from DtpPort._on_init_ack; scalar in every
    # backend — INIT exchanges are never batched)
    # ------------------------------------------------------------------
    def on_synchronized(self, port) -> None:
        if self.dormant:
            return
        if not (self.port_ab.synchronized and self.port_ba.synchronized):
            return
        if self.state == LINK_RESYNC:
            # Counter re-acquired via the INIT handshake on both sides:
            # clean-interval counting starts from here.
            self.dir_ab.rebase()
            self.dir_ba.rebase()
        if not self._watchdog_armed:
            self.dir_ab.rebase()
            self.dir_ba.rebase()
            self._arm_watchdog()

    def allows_fastpath(self) -> bool:
        """Batched-backend eligibility: only a fully-UP link promotes."""
        return self.state == LINK_UP

    # ------------------------------------------------------------------
    # Gate notifications (via the manager)
    # ------------------------------------------------------------------
    def note_admin_down(self) -> None:
        """A fault claimed the link down: label the coming silence."""
        self.dir_ab.pending_cause = CAUSE_ADMIN
        self.dir_ba.pending_cause = CAUSE_ADMIN
        if self.state == LINK_RESYNC:
            # The fault struck mid-rejoin; restart recovery promptly
            # instead of waiting out the resync timeout.
            self._enter_down(CAUSE_ADMIN)

    def note_admin_released(self) -> None:
        if self.dir_ab.pending_cause == CAUSE_ADMIN:
            self.dir_ab.pending_cause = CAUSE_NONE
        if self.dir_ba.pending_cause == CAUSE_ADMIN:
            self.dir_ba.pending_cause = CAUSE_NONE

    def note_signal_loss(self, tx: str) -> None:
        direction = self.dir_ab if tx == self.a else self.dir_ba
        direction.pending_cause = CAUSE_SIGNAL_LOSS

    def note_signal_restore(self, tx: str) -> None:
        direction = self.dir_ab if tx == self.a else self.dir_ba
        if direction.pending_cause == CAUSE_SIGNAL_LOSS:
            direction.pending_cause = CAUSE_NONE

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _arm_watchdog(self) -> None:
        """Cold arm (off-grid ``now``): locate the grid, then post."""
        osc = self._osc
        tick = osc.ticks_at(self.sim.now) + self._watchdog_ticks
        self._next_watchdog_tick = tick
        self._watchdog_armed = True
        self.sim.post_at(osc.time_of_tick(tick), self._watchdog_tick)

    def _rearm_watchdog(self) -> None:
        """Hot rearm from inside a tick: ``now`` *is* the current grid
        edge, so the next edge is one window of index arithmetic away
        (``ticks_at(now)`` would return exactly the stored index)."""
        tick = self._next_watchdog_tick + self._watchdog_ticks
        self._next_watchdog_tick = tick
        self.sim.post_at(self._osc.time_of_tick(tick), self._watchdog_tick)

    def _watchdog_tick(self) -> None:
        state = self.state
        if state == LINK_UP or state == LINK_DEGRADED:
            verdict_ab = self.dir_ab.assess()
            verdict_ba = self.dir_ba.assess()
            if verdict_ab == VERDICT_DOWN or verdict_ba == VERDICT_DOWN:
                cause = (
                    self.dir_ab.cause
                    if verdict_ab == VERDICT_DOWN
                    else self.dir_ba.cause
                )
                self._enter_down(cause)
            elif (
                verdict_ab == VERDICT_DEGRADED
                or verdict_ba == VERDICT_DEGRADED
            ):
                if state != LINK_DEGRADED:
                    self._set_state(LINK_DEGRADED, CAUSE_BER)
                    self._demote_fastpath()
            elif state == LINK_DEGRADED:
                self._set_state(LINK_UP, CAUSE_NONE)
        elif state == LINK_RESYNC:
            self._resync_windows += 1
            if self.port_ab.synchronized and self.port_ba.synchronized:
                verdict_ab = self.dir_ab.assess()
                verdict_ba = self.dir_ba.assess()
                if (
                    verdict_ab == VERDICT_CLEAN
                    and verdict_ba == VERDICT_CLEAN
                ):
                    self._clean += 1
                    self._emit(
                        EV_LINK_RESYNC,
                        self._clean,
                        self.config.resync_clean_intervals,
                    )
                    if self._clean >= self.config.resync_clean_intervals:
                        self._complete_resync()
                        self._rearm_watchdog()
                        return
                else:
                    self._clean = 0
            if self._resync_windows >= self.config.resync_timeout_windows:
                self._resync_failed()
        # DOWN / RECONNECTING: the backoff timer drives; the watchdog
        # just keeps its grid alive for the RESYNC phase that follows.
        self._rearm_watchdog()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _enter_down(self, cause: int) -> None:
        self.downs += 1
        self.attempt = 0
        self._backoff_fs = self.config.backoff_base_fs
        self._set_state(LINK_DOWN, cause)
        self.manager.quarantine(self)
        # Hold the link: cancels beacons, demotes fastpath directions,
        # and keeps a fault's heal from re-raising it under us.
        self.manager.gate.claim_down(self.a, self.b, claim=self.claim)
        self._schedule_reconnect()

    def _schedule_reconnect(self) -> None:
        delay = min(self._backoff_fs, self.config.backoff_max_fs)
        jitter = self.config.backoff_jitter_fs
        if jitter > 0:
            delay += self._stream().randrange(jitter + 1)
        self.attempt += 1
        self.reconnect_attempts += 1
        if self._attempt_cell is not None:
            self._attempt_cell.value += 1
        if self.state != LINK_RECONNECTING:
            self._set_state(LINK_RECONNECTING, CAUSE_NONE)
        self._emit(EV_LINK_RECONNECT, self.attempt, delay)
        self._reconnect_event = self.sim.schedule(
            delay, self._attempt_reconnect
        )

    def _attempt_reconnect(self) -> None:
        self._reconnect_event = None
        gate = self.manager.gate
        if any(claim != self.claim for claim in gate.holds(self.a, self.b)):
            # A fault still holds the link down; back off and retry.
            self._backoff_fs = min(
                self._backoff_fs * 2, self.config.backoff_max_fs
            )
            self._schedule_reconnect()
            return
        self._clean = 0
        self._resync_windows = 0
        self._set_state(LINK_RESYNC, CAUSE_NONE)
        # Release our hold: both ports rerun T0 (INIT, then JOIN) and the
        # counter is re-acquired while the edge stays quarantined.
        gate.release_up(self.a, self.b, claim=self.claim)

    def _resync_failed(self) -> None:
        cause = (
            self.dir_ab.pending_cause
            or self.dir_ba.pending_cause
            or CAUSE_SILENCE
        )
        self._backoff_fs = min(self._backoff_fs * 2, self.config.backoff_max_fs)
        self._set_state(LINK_DOWN, cause)
        self.manager.gate.claim_down(self.a, self.b, claim=self.claim)
        self._schedule_reconnect()

    def _complete_resync(self) -> None:
        self.resyncs += 1
        self.releases += 1
        if self._release_cell is not None:
            self._release_cell.value += 1
        self.manager.release(self)
        self._emit(EV_LINK_RELEASE, self.attempt, self._resync_windows)
        self.attempt = 0
        self._set_state(LINK_UP, CAUSE_NONE)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _set_state(self, state: int, cause: int) -> None:
        if state == self.state:
            return
        self.state = state
        if self._transition_cells is not None:
            self._transition_cells[state].value += 1
        self._emit(EV_LINK_STATE, state, cause)

    def _demote_fastpath(self) -> None:
        """Hand any batched direction of this link back to scalar."""
        self.port_ab.leave_fastpath()
        self.port_ba.leave_fastpath()

    def _stream(self):
        if self._rng is None:
            self._rng = self.manager.network.streams.stream(
                f"linkhealth/{self.link}"
            )
        return self._rng

    def _emit(self, kind: int, a: int = 0, b: int = 0) -> None:
        if self._tracer is not None:
            self._tracer.record(self.sim._now, kind, self._sid, a, b)

    def summary(self) -> Dict[str, object]:
        return {
            "state": LINK_STATE_NAMES[self.state],
            "downs": self.downs,
            "reconnect_attempts": self.reconnect_attempts,
            "resyncs": self.resyncs,
            "releases": self.releases,
        }


class LinkHealthManager:
    """Owns one supervisor per topology edge of a ``DtpNetwork``.

    Constructed by :class:`~repro.dtp.network.DtpNetwork` when (and only
    when) a ``linkhealth`` spec is given.  Construction is side-effect
    free beyond subject interning and metric-family registration, so the
    sharded coordinator's replicated build stays inert; watchdogs start
    lazily from the ports' synchronization hooks.
    """

    def __init__(self, network, config: LinkHealthConfig) -> None:
        self.network = network
        self.config = config
        self.gate = network.gate
        self.gate.manager = self
        self.checker = None
        self.metric_families: Dict[str, object] = {}
        telemetry = network.telemetry
        if telemetry is not None:
            registry = telemetry.registry
            self.metric_families = {
                "transitions": registry.counter(
                    "linkhealth_transitions_total",
                    "recovery-FSM state entries, by link and state",
                    labelnames=("link", "state"),
                ),
                "attempts": registry.counter(
                    "linkhealth_reconnect_attempts_total",
                    "reconnect attempts scheduled by the recovery FSM",
                    labelnames=("link",),
                ),
                "releases": registry.counter(
                    "linkhealth_releases_total",
                    "quarantine-release handshakes after clean resync",
                    labelnames=("link",),
                ),
            }
        self.supervisors: Dict[Tuple[str, str], LinkSupervisor] = {}
        for edge in network.topology.edges:
            supervisor = LinkSupervisor(self, edge.a, edge.b)
            self.supervisors[link_key(edge.a, edge.b)] = supervisor
            network.ports[(edge.a, edge.b)]._linkhealth = supervisor
            network.ports[(edge.b, edge.a)]._linkhealth = supervisor

    def bind_checker(self, checker) -> None:
        """Attach the invariant checker for the quarantine handshake."""
        self.checker = checker

    def restrict(self, owned) -> None:
        """Sharded worker: supervise only links with both endpoints owned."""
        owned = set(owned)
        for (a, b), supervisor in self.supervisors.items():
            if a not in owned or b not in owned:
                supervisor.dormant = True

    # -- checker handshake ---------------------------------------------
    def quarantine(self, supervisor: LinkSupervisor) -> None:
        if self.checker is not None:
            self.checker.quarantine_edge(
                supervisor.a, supervisor.b, "linkhealth"
            )

    def release(self, supervisor: LinkSupervisor) -> None:
        if self.checker is not None:
            self.checker.release_edge(supervisor.a, supervisor.b, "linkhealth")

    # -- gate notifications --------------------------------------------
    def on_gate_down(self, a: str, b: str, claim: str) -> None:
        if claim.startswith("linkhealth:"):
            return
        supervisor = self.supervisors.get(link_key(a, b))
        if supervisor is not None and not supervisor.dormant:
            supervisor.note_admin_down()

    def on_gate_release(self, a: str, b: str, claim: str, raised: bool) -> None:
        if claim.startswith("linkhealth:"):
            return
        supervisor = self.supervisors.get(link_key(a, b))
        if supervisor is not None and not supervisor.dormant:
            supervisor.note_admin_released()

    def on_signal_loss(self, a: str, b: str) -> None:
        supervisor = self.supervisors.get(link_key(a, b))
        if supervisor is not None and not supervisor.dormant:
            supervisor.note_signal_loss(a)

    def on_signal_restore(self, a: str, b: str) -> None:
        supervisor = self.supervisors.get(link_key(a, b))
        if supervisor is not None and not supervisor.dormant:
            supervisor.note_signal_restore(a)

    # -- results --------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        links = {}
        for key in sorted(self.supervisors):
            supervisor = self.supervisors[key]
            links[supervisor.link] = supervisor.summary()
        return {"links": links}
