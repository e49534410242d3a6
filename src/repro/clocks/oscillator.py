"""Quartz-oscillator models.

An oscillator produces tick edges at (approximately) its nominal frequency.
Real oscillators deviate by up to +/-100 ppm (the IEEE 802.3 envelope the
paper assumes, Section 3.1) and the deviation wanders slowly with
temperature.  We model the fractional frequency offset ("skew") as a
deterministic-per-seed function of time and realize it as piecewise-constant
integer periods: within an *update interval* (default 1 ms) the period is
fixed, and edges are laid out exactly.

The piecewise realization keeps all timestamp arithmetic in integer
femtoseconds, which is what makes the DTP tick-quantization analysis exact
in this simulation.
"""

from __future__ import annotations

import bisect
import random
from abc import ABC, abstractmethod
from typing import List, Optional

from ..sim import units


#: IEEE 802.3 bound on oscillator frequency deviation (Section 3.1).
IEEE_8023_PPM_LIMIT = 100.0


class SkewModel(ABC):
    """Fractional frequency offset, in ppm, as a function of time."""

    @abstractmethod
    def ppm_at(self, t_fs: int) -> float:
        """Return the frequency deviation in ppm at absolute time ``t_fs``."""

    def __add__(self, other: "SkewModel") -> "CompositeSkew":
        return CompositeSkew([self, other])


class ConstantSkew(SkewModel):
    """A fixed frequency offset; the workhorse for bound experiments."""

    def __init__(self, ppm: float) -> None:
        self.ppm = ppm

    def ppm_at(self, t_fs: int) -> float:
        return self.ppm

    def __repr__(self) -> str:
        return f"ConstantSkew({self.ppm:+.3f} ppm)"


class RandomWalkSkew(SkewModel):
    """Bounded random-walk wander (short-term temperature / aging noise).

    The walk takes one step per ``step_interval_fs`` and is clamped to
    ``mean_ppm +/- max_excursion_ppm``.  Steps are generated lazily but
    deterministically from the seed, so ``ppm_at`` is a pure function of
    time for a given instance.
    """

    def __init__(
        self,
        mean_ppm: float,
        step_ppm: float = 0.005,
        step_interval_fs: int = units.MS,
        max_excursion_ppm: float = 2.0,
        seed: int = 0,
    ) -> None:
        if step_interval_fs <= 0:
            raise ValueError("step_interval_fs must be positive")
        self.mean_ppm = mean_ppm
        self.step_ppm = step_ppm
        self.step_interval_fs = step_interval_fs
        self.max_excursion_ppm = max_excursion_ppm
        self._rng = random.Random(seed)
        self._walk: List[float] = [0.0]

    def _extend(self, index: int) -> None:
        while len(self._walk) <= index:
            step = self._rng.uniform(-self.step_ppm, self.step_ppm)
            value = self._walk[-1] + step
            limit = self.max_excursion_ppm
            value = max(-limit, min(limit, value))
            self._walk.append(value)

    def ppm_at(self, t_fs: int) -> float:
        index = max(0, t_fs // self.step_interval_fs)
        self._extend(index)
        return self.mean_ppm + self._walk[index]

    def __repr__(self) -> str:
        return f"RandomWalkSkew(mean={self.mean_ppm:+.3f} ppm, step={self.step_ppm} ppm)"


class CompositeSkew(SkewModel):
    """Sum of several skew components."""

    def __init__(self, components: List[SkewModel]) -> None:
        self.components = list(components)

    def ppm_at(self, t_fs: int) -> float:
        return sum(component.ppm_at(t_fs) for component in self.components)

    def __repr__(self) -> str:
        return f"CompositeSkew({self.components!r})"


class _Segment:
    """A stretch of time during which the oscillator period is constant."""

    __slots__ = ("start_fs", "end_fs", "period_fs", "first_edge_fs", "start_count", "edge_count")

    def __init__(
        self,
        start_fs: int,
        end_fs: int,
        period_fs: int,
        first_edge_fs: int,
        start_count: int,
    ) -> None:
        self.start_fs = start_fs
        self.end_fs = end_fs
        self.period_fs = period_fs
        self.first_edge_fs = first_edge_fs
        self.start_count = start_count
        if first_edge_fs >= end_fs:
            self.edge_count = 0
        else:
            self.edge_count = (end_fs - 1 - first_edge_fs) // period_fs + 1

    def ticks_at(self, t_fs: int) -> int:
        """Edges up to and including time ``t_fs`` (cumulative count)."""
        if t_fs < self.first_edge_fs:
            return self.start_count
        return self.start_count + (t_fs - self.first_edge_fs) // self.period_fs + 1

    def next_edge_after(self, t_fs: int) -> Optional[int]:
        """First edge strictly after ``t_fs`` inside this segment, or None."""
        if self.edge_count == 0:
            return None
        if t_fs < self.first_edge_fs:
            return self.first_edge_fs
        k = (t_fs - self.first_edge_fs) // self.period_fs + 1
        if k >= self.edge_count:
            return None
        return self.first_edge_fs + k * self.period_fs

    def last_edge(self) -> Optional[int]:
        if self.edge_count == 0:
            return None
        return self.first_edge_fs + (self.edge_count - 1) * self.period_fs


class Oscillator:
    """An oscillator realized as exact integer-femtosecond tick edges.

    ``ticks_at(t)`` counts edges in ``(origin, t]`` and ``next_edge_after(t)``
    returns the absolute time of the next edge.  Segments are generated
    lazily as simulation time advances and cached, so arbitrary (including
    backward) queries are supported.

    Two hot-path caches keep repeated queries O(1):

    * queries are near-monotonic in simulation time, so the last segment
      hit is remembered and checked before falling back to bisect;
    * ``ticks_at`` is typically called several times at the *same* time
      (one event reads a clock more than once), so the last
      ``(t, ticks)`` pair is memoized.

    Both caches are pure memoization — results are bit-identical with or
    without them.
    """

    def __init__(
        self,
        nominal_period_fs: int,
        skew: Optional[SkewModel] = None,
        update_interval_fs: int = units.MS,
        origin_fs: int = 0,
        name: str = "",
    ) -> None:
        if nominal_period_fs <= 0:
            raise ValueError("nominal_period_fs must be positive")
        if update_interval_fs < nominal_period_fs:
            raise ValueError("update_interval_fs must cover at least one period")
        self.nominal_period_fs = nominal_period_fs
        self.skew = skew if skew is not None else ConstantSkew(0.0)
        self.update_interval_fs = update_interval_fs
        self.origin_fs = origin_fs
        self.name = name
        self._segments: List[_Segment] = []
        self._starts: List[int] = []
        self._last_hit: Optional[_Segment] = None
        self._ticks_memo_t: Optional[int] = None
        self._ticks_memo_n = 0
        self._append_first_segment()

    def _period_for(self, t_fs: int) -> int:
        ppm = self.skew.ppm_at(t_fs)
        return units.period_fs_for_ppm(self.nominal_period_fs, ppm)

    def _append_first_segment(self) -> None:
        start = self.origin_fs
        period = self._period_for(start)
        segment = _Segment(
            start_fs=start,
            end_fs=start + self.update_interval_fs,
            period_fs=period,
            first_edge_fs=start + period,
            start_count=0,
        )
        self._segments.append(segment)
        self._starts.append(segment.start_fs)

    def _append_next_segment(self) -> None:
        prev = self._segments[-1]
        start = prev.end_fs
        period = self._period_for(start)
        last_edge = prev.last_edge()
        if last_edge is None:
            # No edge fell in the previous segment (only possible with
            # pathological update intervals); carry the pending edge time.
            first_edge = prev.first_edge_fs
        else:
            # Not before the update instant, where a shorter period could
            # put it: ticks_at(time_of_tick(n)) == n for every n.
            first_edge = max(last_edge + period, start)
        segment = _Segment(
            start_fs=start,
            end_fs=start + self.update_interval_fs,
            period_fs=period,
            first_edge_fs=first_edge,
            start_count=prev.start_count + prev.edge_count,
        )
        self._segments.append(segment)
        self._starts.append(segment.start_fs)

    def _segment_for(self, t_fs: int) -> _Segment:
        # Fast path: queries are near-monotonic in simulation time, so the
        # last segment hit usually contains this query too.
        hit = self._last_hit
        if hit is not None and hit.start_fs <= t_fs < hit.end_fs:
            return hit
        if t_fs < self.origin_fs:
            raise ValueError(
                f"query at {t_fs} fs precedes oscillator origin {self.origin_fs} fs"
            )
        segments = self._segments
        while segments[-1].end_fs <= t_fs:
            self._append_next_segment()
        index = bisect.bisect_right(self._starts, t_fs) - 1
        segment = segments[index]
        self._last_hit = segment
        return segment

    def ticks_at(self, t_fs: int) -> int:
        """Number of tick edges in ``(origin, t_fs]``."""
        if t_fs == self._ticks_memo_t:
            return self._ticks_memo_n
        # The cached-segment arithmetic is inlined (rather than going
        # through ``_segment_for`` + ``_Segment.ticks_at``): this is the
        # single most-called method in the repo.
        hit = self._last_hit
        if hit is not None and hit.start_fs <= t_fs < hit.end_fs:
            first_edge = hit.first_edge_fs
            if t_fs < first_edge:
                n = hit.start_count
            else:
                n = hit.start_count + (t_fs - first_edge) // hit.period_fs + 1
        else:
            n = self._segment_for(t_fs).ticks_at(t_fs)
        self._ticks_memo_t = t_fs
        self._ticks_memo_n = n
        return n

    def time_of_tick(self, n: int) -> int:
        """Absolute time of the ``n``-th tick edge (``ticks_at`` of it is n).

        ``n`` is 1-based: ``time_of_tick(1)`` is the first edge after the
        origin.  Runs in O(log segments) thanks to cumulative edge counts.
        """
        if n < 1:
            raise ValueError("tick index must be >= 1")
        # Fast path: tick indices, like time queries, arrive near-monotonically,
        # so the last segment hit usually covers this index too.
        hit = self._last_hit
        if hit is not None and hit.start_count < n <= hit.start_count + hit.edge_count:
            return hit.first_edge_fs + (n - hit.start_count - 1) * hit.period_fs
        while self._segments[-1].start_count + self._segments[-1].edge_count < n:
            self._append_next_segment()
        lo, hi = 0, len(self._segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            seg = self._segments[mid]
            if seg.start_count + seg.edge_count >= n:
                hi = mid
            else:
                lo = mid + 1
        segment = self._segments[lo]
        self._last_hit = segment
        k = n - segment.start_count - 1
        return segment.first_edge_fs + k * segment.period_fs

    def next_edge_after(self, t_fs: int) -> int:
        """Absolute time of the first tick edge strictly after ``t_fs``."""
        # Fast path on the cached segment; falls through when the next
        # edge lies in a later segment.
        hit = self._last_hit
        if hit is not None and hit.start_fs <= t_fs < hit.end_fs:
            if t_fs < hit.first_edge_fs:
                if hit.edge_count:
                    return hit.first_edge_fs
            else:
                k = (t_fs - hit.first_edge_fs) // hit.period_fs + 1
                if k < hit.edge_count:
                    return hit.first_edge_fs + k * hit.period_fs
        segment = self._segment_for(max(t_fs, self.origin_fs))
        while True:
            edge = segment.next_edge_after(t_fs)
            if edge is not None:
                return edge
            while self._segments[-1].end_fs <= segment.end_fs:
                self._append_next_segment()
            index = bisect.bisect_right(self._starts, segment.end_fs) - 1
            segment = self._segments[index]

    def edge_index_after(self, t_fs: int) -> int:
        """Tick index of the first edge strictly after ``t_fs``.

        ``time_of_tick(edge_index_after(t)) == next_edge_after(t)``, and
        advancing ``k`` edges from there is just ``+ k`` — which lets the
        CDC hot path do its quantize-and-advance in index arithmetic
        instead of repeated time queries.
        """
        hit = self._last_hit
        if hit is not None and hit.start_fs <= t_fs < hit.end_fs:
            if t_fs < hit.first_edge_fs:
                if hit.edge_count:
                    return hit.start_count + 1
            else:
                k = (t_fs - hit.first_edge_fs) // hit.period_fs + 1
                if k < hit.edge_count:
                    return hit.start_count + k + 1
        return self.ticks_at(self.next_edge_after(t_fs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Oscillator(name={self.name!r}, nominal={self.nominal_period_fs} fs, "
            f"skew={self.skew!r})"
        )
