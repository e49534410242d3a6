"""Discrete tick clocks driven by oscillators.

A :class:`TickClock` is the paper's ``c_p(t)``: a discrete function of real
time that returns an integer *clock counter*.  The counter advances by a
fixed increment per oscillator tick (1 for 10 GbE; 25/5/2 for 1G/40G/100G,
paper Table 2) and can be adjusted, which is how DTP's
``lc <- max(lc, remote + d)`` is realized.
"""

from __future__ import annotations


from .oscillator import Oscillator


class TickClock:
    """An integer counter advanced by an oscillator.

    ``counter_at(t) = increment * ticks_at(t) + offset`` where ``offset`` is
    mutated by adjustments.  The counter is kept as an unbounded Python int;
    DTP's 106-bit width and 53-bit message payloads are enforced at the
    message codec layer, not here.
    """

    def __init__(
        self,
        oscillator: Oscillator,
        increment: int = 1,
        name: str = "",
    ) -> None:
        if increment <= 0:
            raise ValueError("increment must be positive")
        self.oscillator = oscillator
        self.increment = increment
        self.name = name or oscillator.name
        self.offset = 0
        #: Number of adjustments applied so far (paper: "jumps").
        self.adjustments = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_at(self, t_fs: int) -> int:
        """The clock counter value at absolute simulation time ``t_fs``."""
        return self.increment * self.oscillator.ticks_at(t_fs) + self.offset

    def reference_counter_at(self, t_fs: int) -> int:
        """Counter value used for plausibility checks on received messages.

        Identical to :meth:`counter_at` for ordinary clocks; clocks that
        can stall (spanning-tree followers) override this to return the
        free-running value so a legitimate catch-up after a stall is not
        mistaken for a corrupted message.
        """
        return self.counter_at(t_fs)

    # ------------------------------------------------------------------
    # Adjusting
    # ------------------------------------------------------------------
    def set_counter(self, t_fs: int, value: int) -> None:
        """Force the counter to read ``value`` at time ``t_fs``."""
        self.offset = value - self.increment * self.oscillator.ticks_at(t_fs)

    def adjust_to_max(self, t_fs: int, candidate: int) -> bool:
        """DTP Transition T4: ``lc <- max(lc, candidate)``.

        Returns True when the counter actually jumped forward.
        """
        current = self.counter_at(t_fs)
        if candidate > current:
            self.set_counter(t_fs, candidate)
            self.adjustments += 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TickClock(name={self.name!r}, increment={self.increment})"


class AdjustableFrequencyClock:
    """A clock whose *rate* can be steered, as a PTP hardware clock (PHC).

    PTP servos discipline both phase (step) and frequency (slew).  Real PHCs
    apply a frequency adjustment in parts-per-billion to a free-running
    oscillator; we model the disciplined time as a piecewise-linear function
    of the oscillator's tick count.

    Unlike :class:`TickClock`, this clock reports time in **femtoseconds**
    (a timestamp), not an abstract counter, because that is what PTP
    exchanges carry.
    """

    def __init__(self, oscillator: Oscillator, name: str = "") -> None:
        self.oscillator = oscillator
        self.name = name or oscillator.name
        self.nominal_period_fs = oscillator.nominal_period_fs
        # Disciplined time = base_time + (ticks - base_ticks) * period * (1 + freq_adj)
        self._base_time_fs = 0.0
        self._base_ticks = 0
        self._freq_adj = 0.0  # fractional (1e-9 = 1 ppb)
        self._rebased_at_fs = 0
        self.steps = 0
        self.slews = 0

    def time_at(self, t_fs: int) -> float:
        """Disciplined clock reading (fs, float) at simulation time ``t_fs``.

        ``t_fs`` must not precede the last step/slew: the clock's history
        before an adjustment is not retained, so reading the past through
        the current state would extrapolate wrongly.  Sample during the
        run, not after it.  (Reads less than 2 us behind the last rebase —
        a hardware timestamp whose packet straddled an adjustment — are
        clamped to the rebase instant instead of raising.)
        """
        if t_fs < self._rebased_at_fs:
            if self._rebased_at_fs - t_fs > 2_000_000_000:  # 2 us in fs
                raise ValueError(
                    f"clock {self.name!r} was adjusted at {self._rebased_at_fs} fs; "
                    f"cannot read it at earlier time {t_fs} fs"
                )
            t_fs = self._rebased_at_fs
        ticks = self.oscillator.ticks_at(t_fs)
        elapsed = (ticks - self._base_ticks) * self.nominal_period_fs
        return self._base_time_fs + elapsed * (1.0 + self._freq_adj)

    def step(self, t_fs: int, offset_fs: float) -> None:
        """Apply a phase step of ``offset_fs`` (positive = advance)."""
        self._rebase(t_fs)
        self._base_time_fs += offset_fs
        self.steps += 1

    def slew(self, t_fs: int, freq_adj: float, max_adj: float = 500e-6) -> None:
        """Set the frequency correction (clamped to ``max_adj``)."""
        self._rebase(t_fs)
        self._freq_adj = max(-max_adj, min(max_adj, freq_adj))
        self.slews += 1

    @property
    def freq_adj(self) -> float:
        return self._freq_adj

    def _rebase(self, t_fs: int) -> None:
        now_reading = self.time_at(t_fs)
        self._base_time_fs = now_reading
        self._base_ticks = self.oscillator.ticks_at(t_fs)
        self._rebased_at_fs = t_fs

    def set_time(self, t_fs: int, value_fs: float) -> None:
        """Initialize / hard-set the disciplined time."""
        self._rebase(t_fs)
        self._base_time_fs = value_fs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AdjustableFrequencyClock(name={self.name!r}, freq_adj={self._freq_adj:+.3e})"
