"""Frozen host-speed calibration kernel.

``norm_wall`` is a workload's wall-clock divided by this kernel's wall-clock
measured just before and just after it, so the unit of every end-to-end
speed number is "calibration kernels", not seconds on a host whose speed
drifts.  That only works if the kernel never changes: its source hash is
pinned in ``expected.json`` and ``test_selfcheck.py`` fails on any edit.

Stdlib only.  It must never import ``repro`` — an optimisation of the
program must not be able to speed up the ruler it is measured with.
The mix mirrors what the simulator's hot loop does in the interpreter:
tuple pushes and pops on a deep ``heapq`` heap, dict stores, and
arbitrary-precision integer arithmetic (a 64-bit LCG).
"""

import gc
import heapq
import time

STEPS = 300_000
CHECKSUM = 3067732435957


def kernel(steps: int = STEPS) -> int:
    heap = []
    table = {}
    push = heapq.heappush
    pop = heapq.heappop
    x = 12345
    acc = 0
    for i in range(steps):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        push(heap, (x >> 20, i))
        table[i & 4095] = x
        if i & 1:
            acc ^= pop(heap)[0]
    return acc ^ len(heap) ^ len(table)


def calibrate() -> float:
    """Wall seconds of one kernel run (checksum-verified).

    The collector is off while the kernel runs, so the reading does not
    depend on how many objects the measured program left alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        checksum = kernel()
        wall = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if checksum != CHECKSUM:
        raise RuntimeError(f"calibration kernel checksum {checksum} != {CHECKSUM}")
    return wall
