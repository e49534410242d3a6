"""Vectorized cross-check of the oscillator's tick → edge-time map.

Test-time only, like ``tests/checker_reference.py``: nothing under
``src/repro`` imports numpy, and the batched coordinator
(:mod:`repro.fastpath.coordinator`) is pure Python.  Within one oscillator
segment (piecewise-constant period, ~1 ms of simulated time) an edge time
is an integer affine function of the tick index, so :func:`edge_times`
fills whole tick grids with one numpy operation per *segment*, and
:func:`crosscheck_edge_times` compares that grid against the scalar
``Oscillator.time_of_tick`` oracle tick by tick — the equivalence tests
assert the two never disagree.

All times are int64 femtoseconds.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.clocks.oscillator import Oscillator


def edge_times(osc: Oscillator, ticks: np.ndarray) -> np.ndarray:
    """Vectorized ``osc.time_of_tick`` over a sorted int64 tick array.

    One numpy operation per oscillator segment touched: segment
    parameters come from the scalar API (two calls per segment), the
    affine fill ``first_edge + (n - start - 1) * period`` is vectorized.
    """
    ticks = np.asarray(ticks, dtype=np.int64)
    if ticks.size == 0:
        return np.empty(0, dtype=np.int64)
    if ticks.min() < 1:
        raise ValueError("tick indices must be >= 1")
    out = np.empty(ticks.shape, dtype=np.int64)
    i = 0
    n = int(ticks.size)
    flat = ticks.ravel()
    out_flat = out.ravel()
    while i < n:
        # One scalar oracle call materializes (and caches) the segment
        # containing this tick; segments partition tick indices
        # contiguously, so every queried index up to the segment's last
        # edge shares its affine map.  One numpy fill covers them all.
        osc.time_of_tick(int(flat[i]))
        seg = osc._last_hit
        last_index = seg.start_count + seg.edge_count
        j = int(np.searchsorted(flat[i:], last_index, side="right")) + i
        out_flat[i:j] = (
            seg.first_edge_fs
            + (flat[i:j] - seg.start_count - 1) * seg.period_fs
        )
        i = j
    return out


def crosscheck_edge_times(
    osc: Oscillator, ticks: np.ndarray
) -> List[Tuple[int, int, int]]:
    """Compare :func:`edge_times` against the scalar oracle, tick by tick.

    Returns a list of ``(tick, vectorized_fs, scalar_fs)`` mismatches —
    empty when the kernel and the oracle agree (the equivalence tests
    assert exactly that).
    """
    grid = edge_times(osc, np.asarray(ticks, dtype=np.int64))
    mismatches = []
    for tick, got in zip(np.asarray(ticks).tolist(), grid.tolist()):
        want = osc.time_of_tick(int(tick))
        if want != got:
            mismatches.append((int(tick), int(got), int(want)))
    return mismatches
