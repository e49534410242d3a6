"""The one-link OWD adversary (``tests/owd_oracle.py``) against §3.3 and the model.

The enumeration derives what the T0–T2 measurement can return instead of
sampling seeded runs.  What it finds, over every enumerated case:

* When the two ends run at different rates, ``d`` lies within
  ``OwdErrorAnalysis(alpha=3)``'s [-2, 0] of the true delay rounded up to
  a whole tick.  On an integer-tick cable that is the true delay itself.
* A fractional cable can be overestimated by less than one tick: ``d``
  never exceeds the delay rounded up, but it can exceed the delay.
* Two ends with the same period (equal ppm, as in a syntonized network)
  can overestimate by one whole tick.  Their edge grids coincide, so each
  sampling waits a full period, and with both CDC draws late the round
  trip reaches 2d + 5.  §3.3 allows 2d + 4; the extra tick is the
  responder replying on its next edge.
"""

import math
import random
from itertools import product

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.analysis import OwdErrorAnalysis
from repro.dtp.network import DtpNetwork
from repro.network.link import Cable
from repro.network.topology import Topology
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from tests.owd_oracle import (
    ALPHA,
    FRACTIONAL_WIRES_FS,
    INTEGER_WIRES_FS,
    PERIOD_FS,
    PPM_GRID,
    cases,
    measure,
)

BOUNDS = OwdErrorAnalysis(alpha=ALPHA)
#: [-2, 0] for alpha = 3.
ANALYSIS_RANGE = range(BOUNDS.measured_min_minus_d, BOUNDS.measured_max_minus_d + 1)
WIRES_FS = INTEGER_WIRES_FS + FRACTIONAL_WIRES_FS


@pytest.fixture(scope="module")
def enumerated():
    return list(cases(WIRES_FS))


def _over_rounded_up(case) -> int:
    return case.measured - math.ceil(case.true_ticks)


def test_integer_cables_at_distinct_rates_stay_in_the_analysis_range(enumerated):
    errors = {
        case.measured - case.true_ticks
        for case in enumerated
        if case.wire_fs % PERIOD_FS == 0 and case.ppm_initiator != case.ppm_responder
    }
    assert errors <= set(ANALYSIS_RANGE)


def test_fractional_cables_at_distinct_rates_never_exceed_the_delay_rounded_up(enumerated):
    fractional = [
        case for case in enumerated
        if case.wire_fs % PERIOD_FS and case.ppm_initiator != case.ppm_responder
    ]
    assert {_over_rounded_up(case) for case in fractional} <= set(ANALYSIS_RANGE)
    # ... but the delay itself is exceeded, by one tick minus the fraction.
    assert any(case.measured > case.true_ticks for case in fractional)


def test_equal_rates_overestimate_by_one_tick_on_coincident_edges(enumerated):
    over = [case for case in enumerated if _over_rounded_up(case) > 0]
    assert over
    assert {_over_rounded_up(case) for case in over} == {1}
    for case in over:
        assert case.ppm_initiator == case.ppm_responder
        assert case.draws == (1, 1)
        assert case.sampling_wait_fs > PERIOD_FS


def _sampled_links(count=20, seed=2016):
    rng = random.Random(seed)
    return [
        (rng.choice(WIRES_FS), rng.choice(PPM_GRID), rng.choice(PPM_GRID), rng.randrange(1000))
        for _ in range(count)
    ]


@pytest.mark.parametrize("wire_fs, ppm_a, ppm_b, seed", _sampled_links())
def test_network_measures_a_delay_the_oracle_enumerated(wire_fs, ppm_a, ppm_b, seed):
    topology = Topology()
    topology.add_host("a")
    topology.add_host("b")
    cable = Cable(length_m=wire_fs / units.FIBER_DELAY_FS_PER_M)
    assert cable.delay_fs == wire_fs
    topology.add_link("a", "b", cable)
    sim = Simulator()
    net = DtpNetwork(
        sim, topology, RandomStreams(seed),
        skews={"a": ConstantSkew(ppm_a), "b": ConstantSkew(ppm_b)},
    )
    net.start()
    sim.run_until(5 * units.US)
    # Every oscillator starts at time 0: the responder's grid offset is 0.
    for initiator, responder, ppm_i, ppm_r in (("a", "b", ppm_a, ppm_b), ("b", "a", ppm_b, ppm_a)):
        possible = {
            measure(ppm_i, ppm_r, 0, wire_fs, draws).measured
            for draws in product((0, 1), repeat=2)
        }
        assert net.ports[(initiator, responder)].d in possible
