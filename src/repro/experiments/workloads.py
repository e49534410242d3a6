"""Workload definitions shared by the experiments.

The paper evaluates DTP under *frame-cadence* load (which idle blocks are
available) and PTP under *queueing* load (how long packets wait).  The
factories here translate the paper's load names into those two substrates.
"""

from __future__ import annotations

from typing import Callable

from ..ethernet.frames import JUMBO_FRAME, MTU_FRAME, FrameSpec
from ..ethernet.traffic import SaturatedTraffic, TrafficModel

FRAMES = {"mtu": MTU_FRAME, "jumbo": JUMBO_FRAME}


def frame_for(name: str) -> FrameSpec:
    try:
        return FRAMES[name]
    except KeyError:
        raise KeyError(f"unknown frame {name!r}; use 'mtu' or 'jumbo'") from None


def saturated_traffic(frame_name: str) -> Callable[[int, str], TrafficModel]:
    """The paper's 'heavily loaded' condition: back-to-back frames.

    Each link direction gets a different phase so the network does not
    artificially align every link's idle slots.
    """
    frame = frame_for(frame_name)

    def factory(index: int, direction: str) -> TrafficModel:
        phase = (index * 37 + (0 if direction == "a->b" else 101)) % frame.slot_blocks
        return SaturatedTraffic(frame, phase=phase)

    return factory
