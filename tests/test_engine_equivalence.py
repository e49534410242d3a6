"""Model-based equivalence test for the tuple-heap simulation engine.

The engine keeps ``(time, seq, fn, args, event)`` tuples on the heap,
dispatches through local bindings, and compacts lazily-cancelled entries
in place.  None of that may change observable behavior, so this test runs
arbitrary schedule / post / cancel / run_until programs — including
callbacks that schedule follow-ups and cancel other events mid-run —
against a deliberately naive reference model (a sorted list, no heap, no
lazy deletion) and requires the execution traces to match exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


def live_events(sim):
    """Events still queued and not cancelled."""
    return len(sim._queue) - sim._cancelled_in_queue


class _ModelEvent:
    def __init__(self, time, seq, key, chain, cancellable):
        self.time = time
        self.seq = seq
        self.key = key
        self.chain = chain
        self.cancellable = cancellable
        self.cancelled = False


class _ModelSim:
    """Reference semantics: a plain sorted scan, no heap, no lazy deletion.

    ``pending`` mirrors the engine's bookkeeping exactly, including the
    engine's (seed-inherited) quirk that cancelling an event which has
    already run still decrements the pending count: ``Simulator.cancel``
    only checks the ``cancelled`` flag, not whether the event is queued.
    """

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.live = []
        self.trace = []
        self.pending = 0

    def add(self, time, key, chain, cancellable):
        event = _ModelEvent(time, self.seq, key, chain, cancellable)
        self.seq += 1
        self.live.append(event)
        self.pending += 1
        return event

    def cancel(self, event):
        if event is not None and event.cancellable and not event.cancelled:
            event.cancelled = True
            self.pending -= 1

    def run_until(self, target):
        while True:
            due = [e for e in self.live if not e.cancelled and e.time <= target]
            if not due:
                break
            event = min(due, key=lambda e: (e.time, e.seq))
            self.live.remove(event)
            self.now = event.time
            self.pending -= 1
            self.trace.append((event.key, event.time))
            if event.chain is not None:
                delay, cancel_index = event.chain
                if cancel_index is not None:
                    self.cancel(self.registry_get(cancel_index))
                if delay is not None:
                    self.add(self.now + delay, -event.key, None, False)
        self.live = [e for e in self.live if not e.cancelled]
        self.now = target

    def registry_get(self, index):
        raise NotImplementedError  # bound by the driver


# One scheduled task: (delay, chain) where chain optionally schedules a
# follow-up and/or cancels a previously created event when it fires.
_chain = st.one_of(
    st.none(),
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
    ),
)

_op = st.one_of(
    st.tuples(st.just("schedule"), st.integers(min_value=0, max_value=100), _chain),
    st.tuples(st.just("post"), st.integers(min_value=0, max_value=100), _chain),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200), st.none()),
    st.tuples(st.just("run"), st.integers(min_value=0, max_value=60), st.none()),
)


def _run_real(ops):
    sim = Simulator()
    trace = []
    registry = []  # cancel handles, None for fire-and-forget posts

    def fire(key, chain):
        trace.append((key, sim.now))
        if chain is not None:
            delay, cancel_index = chain
            if cancel_index is not None and registry:
                sim.cancel(registry[cancel_index % len(registry)])
            if delay is not None:
                sim.post_at(sim.now + delay, fire, -key, None)

    for key, (kind, value, chain) in enumerate(ops):
        if kind == "schedule":
            registry.append(sim.schedule(value, fire, key, chain))
        elif kind == "post":
            sim.post_at(sim.now + value, fire, key, chain)
            registry.append(None)
        elif kind == "cancel":
            if registry:
                sim.cancel(registry[value % len(registry)])
        elif kind == "run":
            sim.run_until(sim.now + value)
    sim.run_until(sim.now + 500)
    return trace, live_events(sim)


def _run_model(ops):
    model = _ModelSim()
    registry = []
    model.registry_get = lambda i: registry[i % len(registry)] if registry else None

    for key, (kind, value, chain) in enumerate(ops):
        if kind == "schedule":
            registry.append(model.add(model.now + value, key, chain, True))
        elif kind == "post":
            model.add(model.now + value, key, chain, False)
            registry.append(None)
        elif kind == "cancel":
            if registry:
                model.cancel(registry[value % len(registry)])
        elif kind == "run":
            model.run_until(model.now + value)
    model.run_until(model.now + 500)
    return model.trace, model.pending


def test_compaction_fires_and_preserves_order():
    # Deterministic companion to the property tests: push the queue well
    # past the compaction threshold (64) with a majority of cancelled
    # entries, confirm _compact() actually ran, and that the survivors
    # still execute in exact (time, seq) order.
    sim = Simulator()
    ran = []
    events = [
        sim.schedule_at(1000 + i, lambda i=i: ran.append(i)) for i in range(300)
    ]
    for i in range(0, 300, 2):
        sim.cancel(events[i])
    for i in range(1, 300, 4):
        sim.cancel(events[i])
    assert len(sim._queue) < 300  # compaction dropped cancelled entries
    expected = [i for i in range(300) if i % 2 == 1 and i % 4 != 1]
    assert live_events(sim) == len(expected)
    sim.run_until(2000)
    assert ran == expected
    assert live_events(sim) == 0


class TestEngineMatchesReferenceModel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_op, max_size=60))
    def test_traces_identical(self, ops):
        real_trace, real_pending = _run_real(ops)
        model_trace, model_pending = _run_model(ops)
        assert real_trace == model_trace
        assert real_pending == model_pending

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_op, min_size=100, max_size=160))
    def test_traces_identical_under_compaction(self, ops):
        # Long cancel-heavy programs push the queue past the compaction
        # threshold; behavior must not change when _compact() kicks in.
        real_trace, real_pending = _run_real(ops)
        model_trace, model_pending = _run_model(ops)
        assert real_trace == model_trace
        assert real_pending == model_pending
