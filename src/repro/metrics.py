"""Clock-stability metrics: Allan deviation and MTIE.

The paper reports raw offset ranges; the synchronization community also
characterizes clocks with these standard statistics (ITU-T G.810):

* **Allan deviation** (ADEV) — frequency stability over averaging time tau;
* **MTIE** — Maximum Time Interval Error: the largest peak-to-peak time
  error within any observation window of a given length (the metric SyncE
  and PTP telecom profiles are specified against);

All functions take a uniformly sampled time-error series ``x`` (seconds or
any consistent unit) with sampling interval ``tau0``.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


class MetricsError(ValueError):
    """Raised on series too short for the requested statistic."""


def _check(x: Sequence[float], minimum: int) -> None:
    if len(x) < minimum:
        raise MetricsError(f"need at least {minimum} samples, got {len(x)}")


def allan_deviation(x: Sequence[float], tau0: float, m: int = 1) -> float:
    """Overlapping Allan deviation at averaging time ``m * tau0``.

    ``sigma_y^2(tau) = 1 / (2 tau^2 (N - 2m)) * sum (x[i+2m] - 2x[i+m] + x[i])^2``
    """
    _check(x, 2 * m + 1)
    if m < 1 or tau0 <= 0:
        raise MetricsError("m must be >= 1 and tau0 positive")
    tau = m * tau0
    n = len(x)
    total = 0.0
    count = 0
    for i in range(n - 2 * m):
        second_diff = x[i + 2 * m] - 2 * x[i + m] + x[i]
        total += second_diff * second_diff
        count += 1
    if count == 0:
        raise MetricsError("series too short for this m")
    return math.sqrt(total / (2.0 * tau * tau * count))


def allan_deviation_curve(
    x: Sequence[float], tau0: float, octaves: int = 8
) -> Dict[float, float]:
    """ADEV at geometrically spaced taus (as many octaves as data allows)."""
    curve: Dict[float, float] = {}
    m = 1
    for _ in range(octaves):
        if len(x) < 2 * m + 1:
            break
        curve[m * tau0] = allan_deviation(x, tau0, m)
        m *= 2
    if not curve:
        raise MetricsError("series too short for any tau")
    return curve


def mtie(x: Sequence[float], window_samples: int) -> float:
    """Maximum Time Interval Error over windows of ``window_samples``.

    Sliding-window max-min, computed with monotonic deques in O(n).
    """
    _check(x, 2)
    if window_samples < 2:
        raise MetricsError("window must span at least 2 samples")
    window = min(window_samples, len(x))
    from collections import deque

    max_deque: deque = deque()  # indices, values decreasing
    min_deque: deque = deque()  # indices, values increasing
    worst = 0.0
    for i, value in enumerate(x):
        while max_deque and x[max_deque[-1]] <= value:
            max_deque.pop()
        max_deque.append(i)
        while min_deque and x[min_deque[-1]] >= value:
            min_deque.pop()
        min_deque.append(i)
        start = i - window + 1
        if max_deque[0] < start:
            max_deque.popleft()
        if min_deque[0] < start:
            min_deque.popleft()
        if i >= window - 1:
            worst = max(worst, x[max_deque[0]] - x[min_deque[0]])
    return worst


def mtie_curve(x: Sequence[float], tau0: float, octaves: int = 8) -> Dict[float, float]:
    """MTIE at geometrically spaced window lengths."""
    curve: Dict[float, float] = {}
    window = 2
    for _ in range(octaves):
        if window > len(x):
            break
        curve[window * tau0] = mtie(x, window)
        window *= 2
    if not curve:
        raise MetricsError("series too short for any window")
    return curve


def max_abs_excursion(values: Sequence[float]) -> float:
    """Largest absolute value in a series (0 for an empty series).

    The fault campaigns report this over the worst-pair offset series: the
    single farthest any healthy node pair strayed during the run.
    """
    worst = 0.0
    for value in values:
        magnitude = abs(value)
        if magnitude > worst:
            worst = magnitude
    return worst

