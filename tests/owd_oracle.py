"""One-link OWD adversary: every T0–T2 round trip the model leaves to chance.

A spec oracle for the INIT / INIT_ACK exchange (paper Algorithm 1, T0–T2,
and the §3.3 error analysis).  It is written from the paper's description
of the message path and shares no code with ``repro.dtp``; it imports only
time units, PHY constants, and the analysis it is checked against.

One message, from the sender's send edge to the receiver's control logic:

* the TX pipeline: ``TX_TICKS`` edges of the sender's clock;
* the wire: a constant delay in femtoseconds;
* sampling: the receiver's first edge strictly after the arrival;
* the CDC synchronization FIFO: zero or one further receiver edge, the one
  random draw on the path;
* the RX pipeline: ``RX_TICKS`` edges of the receiver's clock.

Link-up is at time 0, so the initiator's INIT takes its first edge and
carries the counter of that edge.  The responder echoes it on its next
edge after processing (an idle link offers an ``/E/`` block every tick).
The initiator measures ``d = max(0, (rtt - alpha) // 2)`` in ticks of its
own clock, ``rtt`` being its counter gain from send to processing.

:func:`cases` enumerates everything the model leaves to chance on one
link: the CDC draw at both crossings (INIT at the responder, INIT_ACK at
the initiator), the TX phase (the responder's edge grid against the
initiator's, over one period), both ppm values, and the cable delay.
"""

from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple

from repro.phy.pipeline import PhyLatencyConfig
from repro.phy.specs import PHY_10G
from repro.sim import units

PERIOD_FS = PHY_10G.period_fs
TX_TICKS = PhyLatencyConfig().tx_pipeline_ticks
RX_TICKS = PhyLatencyConfig().rx_pipeline_ticks
ALPHA = 3

#: ppm values for each end, over the IEEE 802.3 ±100 ppm envelope.
PPM_GRID = (-100, -60, -20, -1, 0, 1, 20, 60, 100)
#: Responder edge-grid offsets in femtoseconds: the coincident grid (how
#: the simulator starts every oscillator), one femtosecond either side of
#: it, and eighths of a period.
PHASES_FS = (0, 1) + tuple(k * PERIOD_FS // 8 for k in range(1, 8)) + (PERIOD_FS - 1,)
#: Cable delays of 1–8 whole ticks (1 tick = 1.28 m).
INTEGER_WIRES_FS = tuple(ticks * PERIOD_FS for ticks in range(1, 9))
#: A few whole-tick cables plus a fraction of a tick, from 1 fs to P - 1.
FRACTIONAL_WIRES_FS = tuple(
    ticks * PERIOD_FS + fraction
    for ticks in (0, 3, 7)
    for fraction in (1, PERIOD_FS // 4, PERIOD_FS // 3, PERIOD_FS // 2, PERIOD_FS - 1)
)


class Clock:
    """An oscillator started at ``phase_fs``: edge ``k >= 1`` at phase + k·period."""

    def __init__(self, ppm: float, phase_fs: int = 0) -> None:
        self.period_fs = units.period_fs_for_ppm(PERIOD_FS, ppm)
        self.phase_fs = phase_fs

    def edge(self, index: int) -> int:
        return self.phase_fs + index * self.period_fs

    def index_after(self, t_fs: int) -> int:
        """Index of the first edge strictly after ``t_fs``."""
        return (t_fs - self.phase_fs) // self.period_fs + 1


class Hop(NamedTuple):
    processed: int  # receiver edge index at which the control logic acts
    wait_fs: int  # sampling wait: arrival to the next receiver edge, (0, period]


def hop(sender: Clock, send_index: int, wire_fs: int, receiver: Clock, draw: int) -> Hop:
    """One message sent on ``sender``'s edge ``send_index``."""
    arrival = sender.edge(send_index + TX_TICKS) + wire_fs
    sampled = receiver.index_after(arrival)
    return Hop(sampled + draw + RX_TICKS, receiver.edge(sampled) - arrival)


class Case(NamedTuple):
    ppm_initiator: float
    ppm_responder: float
    phase_fs: int
    wire_fs: int
    draws: tuple
    measured: int  # d the initiator computes at T2, in its ticks
    sampling_wait_fs: int  # both sampling waits together

    @property
    def true_ticks(self) -> Fraction:
        """Pipelines plus wire, in nominal ticks: the delay d estimates."""
        return TX_TICKS + RX_TICKS + Fraction(self.wire_fs, PERIOD_FS)


def measure(ppm_initiator, ppm_responder, phase_fs, wire_fs, draws) -> Case:
    """Run T0–T2 once with the given CDC draws (INIT, INIT_ACK)."""
    initiator = Clock(ppm_initiator)
    responder = Clock(ppm_responder, phase_fs)
    send = 1
    init = hop(initiator, send, wire_fs, responder, draws[0])
    ack = hop(responder, init.processed + 1, wire_fs, initiator, draws[1])
    measured = max(0, (ack.processed - send - ALPHA) // 2)
    return Case(
        ppm_initiator, ppm_responder, phase_fs, wire_fs, draws, measured,
        init.wait_fs + ack.wait_fs,
    )


def cases(wires_fs) -> Iterator[Case]:
    """Every combination of ppm pair, phase, cable delay and CDC draws."""
    for ppm_i, ppm_r, phase, wire, draws in product(
        PPM_GRID, PPM_GRID, PHASES_FS, wires_fs, product((0, 1), repeat=2)
    ):
        yield measure(ppm_i, ppm_r, phase, wire, draws)
