"""Bound decomposition: split observed offsets into OWD error and drift.

Paper Section 3.3 argues the per-link offset bound is structural::

    |offset| <= 2 ticks (OWD measurement error) + 2 ticks (beacon drift)

This module measures both components *from the trace* and cross-checks
them against the ``dtp/analysis.py`` closed forms:

* **OWD error** — every matched (EV_TX BEACON, EV_RX BEACON) pair gives an
  observed flight time in receiver ticks; the minimum flight minus the
  credited ``d`` (EV_OWD) is how much the INIT exchange under-measured the
  one-way delay.  :class:`~repro.dtp.analysis.OwdErrorAnalysis` bounds it
  at ``-measured_min_minus_d`` ticks (2 for alpha = 3).
* **drift** — between beacons the two oscillators diverge by
  ``interval * ppm_gap`` ticks (:func:`~repro.dtp.analysis.drift_ticks_over`,
  far below one tick for a 200-tick interval), accumulating until a T4
  jump reclaims it; the largest steady-state beacon jump is therefore the
  observed drift component, bounded at 2 ticks for any interval under
  ~5000 ticks.

Scorecards are computed over the scenario's *fault-free interval* (before
the first fault arms, per the spec) with a convergence grace at the start,
and degrade gracefully when the ring dropped the records a component
needs (reported as ``incomplete`` rather than guessed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..clocks.oscillator import IEEE_8023_PPM_LIMIT
from ..dtp import messages as dtpmsg
from ..dtp.analysis import OwdErrorAnalysis, drift_ticks_over
from ..phy.specs import PHY_10G
from ..sim import units
from ..telemetry.events import EV_RX, EV_TX
from ..telemetry.index import TraceIndex
from .timeline import CAUSE_BEACON, Timeline, reconstruct_timeline

#: Convergence grace: jumps earlier than this are INIT/JOIN settling, not
#: steady-state drift reclamation.
DEFAULT_GRACE_FS = 50 * units.US

#: The per-component budgets of the 4-tick direct bound (Section 3.3).
OWD_ERROR_BUDGET_TICKS = 2
DRIFT_BUDGET_TICKS = 2

#: Spec keys that mark when a fault model first perturbs the run.
_FAULT_START_KEYS = ("start_fs", "at_fs", "down_at_fs")


def fault_free_end_fs(spec: Dict[str, object]) -> Optional[int]:
    """When the scenario's first fault arms (None = fault-free throughout)."""
    starts = []
    for fault in spec.get("faults", []):
        for key in _FAULT_START_KEYS:
            if key in fault:
                starts.append(int(fault[key]))
                break
    return min(starts) if starts else None


@dataclass
class DirectionStats:
    """One directed link's decomposition (beacons flowing tx -> rx)."""

    tx_port: str
    rx_port: str
    beacons_matched: int = 0
    #: Credited OWD and alpha, in ticks (None when EV_OWD fell off the ring).
    d_ticks: Optional[int] = None
    alpha_ticks: Optional[int] = None
    flight_min_ticks: Optional[int] = None
    flight_max_ticks: Optional[int] = None
    #: Observed components, in ticks.
    owd_error_ticks: Optional[int] = None
    drift_ticks: int = 0
    beacon_jumps: int = 0
    #: Closed-form cross-checks (dtp/analysis.py).
    owd_error_bound_ticks: Optional[int] = None
    drift_closed_form_ticks: float = 0.0

    @property
    def complete(self) -> bool:
        return self.owd_error_ticks is not None and self.beacons_matched > 0

    @property
    def owd_within_budget(self) -> Optional[bool]:
        if self.owd_error_ticks is None:
            return None
        return self.owd_error_ticks <= OWD_ERROR_BUDGET_TICKS

    @property
    def drift_within_budget(self) -> bool:
        return self.drift_ticks <= DRIFT_BUDGET_TICKS

    @property
    def owd_within_closed_form(self) -> Optional[bool]:
        """Observed OWD error vs the alpha-parameterized analytical bound."""
        if self.owd_error_ticks is None or self.owd_error_bound_ticks is None:
            return None
        return self.owd_error_ticks <= self.owd_error_bound_ticks


@dataclass
class LinkScorecard:
    """Both directions of one undirected link."""

    a: str
    b: str
    directions: List[DirectionStats] = field(default_factory=list)
    #: Largest reconstructed |gc offset| between the endpoints (ticks),
    #: over the analysis window; an estimate (anchor quantization adds up
    #: to ~2 ticks), shown for context rather than gated on.
    max_reconstructed_offset_ticks: Optional[int] = None

    @property
    def link(self) -> str:
        return f"{self.a}-{self.b}"

    @property
    def complete(self) -> bool:
        return bool(self.directions) and all(d.complete for d in self.directions)


def _match_beacons(
    index: TraceIndex,
    tx_port: str,
    rx_port: str,
    start_fs: int,
    end_fs: Optional[int],
) -> List[Tuple[int, int]]:
    """(tx_time, rx_time) for every beacon matched by payload, in order.

    Payloads are monotone counter snapshots, so a two-pointer sweep in time
    order matches each reception to the transmission that produced it;
    lost or rejected beacons simply never match.
    """
    beacon = int(dtpmsg.MessageType.BEACON)
    txs = [r for r in index.stream(EV_TX, tx_port) if r[3] == beacon]
    rxs = [r for r in index.stream(EV_RX, rx_port) if r[3] == beacon]
    matches: List[Tuple[int, int]] = []
    tx_pos = 0
    for rx in rxs:
        rx_time, payload = rx[0], rx[4]
        while tx_pos < len(txs) and txs[tx_pos][0] < rx_time:
            if txs[tx_pos][4] == payload:
                break
            tx_pos += 1
        if tx_pos >= len(txs) or txs[tx_pos][0] >= rx_time:
            continue
        tx_time = txs[tx_pos][0]
        tx_pos += 1
        if tx_time < start_fs:
            continue
        if end_fs is not None and rx_time >= end_fs:
            break
        matches.append((tx_time, rx_time))
    return matches


def decompose_direction(
    index: TraceIndex,
    timeline: Timeline,
    tx_port: str,
    rx_port: str,
    increment: int = 1,
    period_fs: int = PHY_10G.period_fs,
    start_fs: int = DEFAULT_GRACE_FS,
    end_fs: Optional[int] = None,
    ppm_gap: float = 2.0 * IEEE_8023_PPM_LIMIT,
) -> DirectionStats:
    """Decompose one directed link over ``[start_fs, end_fs)``."""
    stats = DirectionStats(tx_port=tx_port, rx_port=rx_port)
    port = timeline.ports.get(rx_port)

    if port is not None and port.owd:
        _t, d, alpha = port.owd[-1]
        stats.d_ticks = d // increment
        stats.alpha_ticks = alpha // increment
        analysis = OwdErrorAnalysis(alpha=stats.alpha_ticks)
        stats.owd_error_bound_ticks = -analysis.measured_min_minus_d

    matches = _match_beacons(index, tx_port, rx_port, start_fs, end_fs)
    stats.beacons_matched = len(matches)
    if matches:
        flights = [
            (rx_time - tx_time + period_fs // 2) // period_fs
            for tx_time, rx_time in matches
        ]
        stats.flight_min_ticks = min(flights)
        stats.flight_max_ticks = max(flights)
        if stats.d_ticks is not None:
            stats.owd_error_ticks = max(0, stats.flight_min_ticks - stats.d_ticks)

    if port is not None:
        beacon_interval_ticks = 0
        window_times = [
            t
            for t in port.beacon_rx_times
            if t >= start_fs and (end_fs is None or t < end_fs)
        ]
        gaps = [
            window_times[i + 1] - window_times[i]
            for i in range(len(window_times) - 1)
        ]
        if gaps:
            beacon_interval_ticks = max(gaps) // period_fs
        for time_fs, _delta, applied, cause in port.jumps:
            if cause != CAUSE_BEACON:
                continue
            if time_fs < start_fs:
                continue
            if end_fs is not None and time_fs >= end_fs:
                continue
            stats.beacon_jumps += 1
            stats.drift_ticks = max(stats.drift_ticks, abs(applied) // increment)
        if beacon_interval_ticks:
            stats.drift_closed_form_ticks = drift_ticks_over(
                beacon_interval_ticks, ppm_gap
            )
    return stats


def _spec_ppm_gap(spec: Optional[Dict[str, object]]) -> float:
    """Worst pairwise skew gap the spec pins, else the IEEE envelope."""
    if spec:
        skews = spec.get("skew_ppm")
        if skews:
            values = [float(v) for v in skews.values()]
            if len(values) >= 2:
                return max(values) - min(values)
    return 2.0 * IEEE_8023_PPM_LIMIT


def decompose_links(
    index: TraceIndex,
    spec: Optional[Dict[str, object]] = None,
    increment: int = 1,
    period_fs: int = PHY_10G.period_fs,
    grace_fs: int = DEFAULT_GRACE_FS,
    timeline: Optional[Timeline] = None,
) -> List[LinkScorecard]:
    """Per-link scorecards over the scenario's fault-free interval.

    With a ``spec`` the analysis window ends when the first fault arms;
    without one (trace-only input) the whole trace span is used.
    """
    if timeline is None:
        timeline = reconstruct_timeline(index, increment=increment, period_fs=period_fs)
    end_fs = fault_free_end_fs(spec) if spec else None
    ppm_gap = _spec_ppm_gap(spec)
    scorecards: List[LinkScorecard] = []
    for a, b in timeline.links():
        card = LinkScorecard(a=a, b=b)
        for tx_port, rx_port in (
            (f"{b}->{a}", f"{a}->{b}"),
            (f"{a}->{b}", f"{b}->{a}"),
        ):
            card.directions.append(
                decompose_direction(
                    index,
                    timeline,
                    tx_port,
                    rx_port,
                    increment=increment,
                    period_fs=period_fs,
                    start_fs=grace_fs,
                    end_fs=end_fs,
                    ppm_gap=ppm_gap,
                )
            )
        offsets = _reconstructed_offsets(
            timeline, a, b, grace_fs, end_fs, period_fs
        )
        if offsets:
            card.max_reconstructed_offset_ticks = max(
                abs(value) // increment for value in offsets
            )
        scorecards.append(card)
    return scorecards


def _reconstructed_offsets(
    timeline: Timeline,
    a: str,
    b: str,
    start_fs: int,
    end_fs: Optional[int],
    period_fs: int,
) -> List[int]:
    """Offset samples over the window, on a half-beacon-interval grid."""
    interval_fs = 100 * period_fs
    times = [
        t
        for t in timeline.sample_times(interval_fs)
        if t >= start_fs and (end_fs is None or t < end_fs)
    ]
    series = timeline.offset_series(a, b, times, max_extrapolation_fs=interval_fs * 4)
    return [offset for _t, offset in series]


def scorecard_rows(scorecards: List[LinkScorecard]) -> List[str]:
    """Markdown table rows for a set of scorecards (deterministic)."""
    lines = [
        "| link | direction | beacons | d (ticks) | flight (ticks) |"
        " owd-err | drift | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for card in scorecards:
        for direction in card.directions:
            if direction.owd_error_ticks is None:
                verdict = "incomplete"
            else:
                owd_ok = direction.owd_within_budget and (
                    direction.owd_within_closed_form is not False
                )
                verdict = "ok" if owd_ok and direction.drift_within_budget else "EXCEEDED"
            flight = (
                f"{direction.flight_min_ticks}..{direction.flight_max_ticks}"
                if direction.flight_min_ticks is not None
                else "-"
            )
            owd_err = (
                f"{direction.owd_error_ticks} <= {direction.owd_error_bound_ticks}"
                if direction.owd_error_ticks is not None
                else "-"
            )
            drift_form = (
                f"{direction.drift_ticks} <= {DRIFT_BUDGET_TICKS}"
                f" (closed form {direction.drift_closed_form_ticks:.3f}/interval)"
            )
            lines.append(
                f"| {card.link} | {direction.tx_port} | {direction.beacons_matched}"
                f" | {direction.d_ticks if direction.d_ticks is not None else '-'}"
                f" | {flight} | {owd_err} | {drift_form} | {verdict} |"
            )
    return lines
