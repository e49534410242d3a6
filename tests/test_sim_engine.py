"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError


def live_events(sim):
    """Events still queued and not cancelled."""
    return len(sim._queue) - sim._cancelled_in_queue


def test_initial_time_is_zero(sim):
    assert sim.now == 0


def test_schedule_and_run_single_event(sim):
    fired = []
    sim.schedule(100, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 100


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(300, order.append, 3)
    sim.schedule(100, order.append, 1)
    sim.schedule(200, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_ties_break_by_insertion_order(sim):
    order = []
    sim.schedule(50, order.append, "first")
    sim.schedule(50, order.append, "second")
    sim.schedule(50, order.append, "third")
    sim.run()
    assert order == ["first", "second", "third"]


def test_schedule_at_absolute_time(sim):
    times = []
    sim.schedule_at(42, lambda: times.append(sim.now))
    sim.run()
    assert times == [42]


def test_cannot_schedule_in_past(sim):
    sim.schedule_at(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_cancel_prevents_execution(sim):
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    event = sim.schedule(10, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert live_events(sim) == 0


def test_cancel_none_is_safe(sim):
    sim.cancel(None)


def test_run_until_executes_events_up_to_time(sim):
    fired = []
    sim.schedule(100, fired.append, "early")
    sim.schedule(200, fired.append, "late")
    sim.run_until(150)
    assert fired == ["early"]
    assert sim.now == 150


def test_run_until_includes_boundary_events(sim):
    fired = []
    sim.schedule(150, fired.append, "edge")
    sim.run_until(150)
    assert fired == ["edge"]


def test_run_until_advances_time_even_without_events(sim):
    sim.run_until(1000)
    assert sim.now == 1000


def test_run_until_rejects_past(sim):
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.run_until(50)


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 50:
            sim.schedule(10, chain)

    sim.schedule(10, chain)
    sim.run()
    assert fired == [10, 20, 30, 40, 50]


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_step_runs_exactly_one_event(sim):
    fired = []
    sim.schedule(1, fired.append, 1)
    sim.schedule(2, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]


def test_run_with_max_events(sim):
    for i in range(10):
        sim.schedule(i + 1, lambda: None)
    count = sim.run(max_events=3)
    assert count == 3
    assert live_events(sim) == 7


def test_run_with_zero_max_events_dispatches_nothing(sim):
    # The bound is tested before the step, not after it.
    fired = []
    sim.schedule(1, fired.append, "x")
    assert sim.run(max_events=0) == 0
    assert fired == [] and sim.now == 0 and live_events(sim) == 1
    assert sim.run() == 1 and fired == ["x"]


def test_pending_events_counts_live_only(sim):
    keep = sim.schedule(10, lambda: None)
    cancel = sim.schedule(20, lambda: None)
    sim.cancel(cancel)
    assert live_events(sim) == 1
    sim.cancel(keep)
    assert live_events(sim) == 0


def test_event_args_passed_through(sim):
    received = []
    sim.schedule(5, lambda a, b: received.append((a, b)), 1, "two")
    sim.run()
    assert received == [(1, "two")]


def test_zero_delay_runs_after_current_event(sim):
    order = []

    def outer():
        sim.schedule(0, order.append, "inner")
        order.append("outer")

    sim.schedule(10, outer)
    sim.run()
    assert order == ["outer", "inner"]
