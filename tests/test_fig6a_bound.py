"""Fig. 6a's adjacent bound on seeds 1–10, on both backends (ROADMAP item 1).

Two channels read the same offsets.  The true channel reads counters
straight from the network: the observe probe samples each edge every
100 us, and at every LOG the experiment records the receiver's counter
minus its peer's at that instant.  The logged channel is what the paper
measured: LOG records riding the PHY, which add a quantization tick
(EXPERIMENTS.md deviation 3).  The true adjacent offset stays inside the
paper's 4-tick bound at every seed.  The logged worst reaches 5 at exactly
three seeds, and at the LOG instants of the 9 ms sweep the true one reaches
exactly 4 at one seed; this file pins which, so a model change that moves
either channel shows here.

The 9 ms sweep is selected only by ``-m slow`` (CI runs it as its own
step); tier-1 runs the 3 ms sweep and the 1 ms backend identity.
"""

import pytest

from repro.bench import result_digest
from repro.dtp.analysis import DIRECT_BOUND_TICKS
from repro.dtp.port import DtpPort
from repro.experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp
from repro.observe.snapshots import ObserveProbe
from repro.sim import units

SEEDS = range(1, 11)
#: The LOG channel's worst reading: the 4-tick bound plus one tick of
#: quantization.
LOGGED_CEILING_TICKS = DIRECT_BOUND_TICKS + 1
SEEDS_LOGGED_AT_CEILING = {3, 4, 9}
#: 9 ms sweep: the seeds whose true offset at a LOG instant reaches the bound.
SEEDS_TRUE_AT_BOUND = {1}


def _run(duration_fs, seed, backend, observe=None):
    config = Fig6DtpConfig(
        duration_fs=duration_fs,
        warmup_fs=min(duration_fs // 4, 2 * units.MS),
        seed=seed,
    )
    return run_fig6_dtp(config, backend=backend, observe=observe)


def _record_true_offsets_at_logs(monkeypatch):
    """Wrap ``DtpPort._on_log_message`` (ports bind it when built): at each
    LOG the experiment records, append the true adjacent offset in ticks."""
    offsets = []
    original = DtpPort._on_log_message

    def on_log_message(port, payload, now, tick):
        if port.on_log is not None and port.d is not None:
            peer_gc = port.peer.device.global_counter(now)
            offset = port.device.global_counter(now) - peer_gc
            offsets.append(abs(offset) / port.device.counter_increment)
        original(port, payload, now, tick)

    monkeypatch.setattr(DtpPort, "_on_log_message", on_log_message)
    return offsets


def _assert_bound_on_every_seed(duration_fs, backend, monkeypatch):
    """Returns the seeds whose true offset at a LOG reaches the bound."""
    at_ceiling, true_at_bound = set(), set()
    for seed in SEEDS:
        probe = ObserveProbe()
        at_logs = _record_true_offsets_at_logs(monkeypatch)
        result = _run(duration_fs, seed, backend, observe=probe)
        assert probe.aggregate.max_value <= DIRECT_BOUND_TICKS, seed
        assert at_logs and max(at_logs) <= DIRECT_BOUND_TICKS, seed
        if max(at_logs) == DIRECT_BOUND_TICKS:
            true_at_bound.add(seed)
        logged = result.summary["worst_logged_offset_ticks"]
        assert logged <= LOGGED_CEILING_TICKS, seed
        if logged == LOGGED_CEILING_TICKS:
            at_ceiling.add(seed)
    assert at_ceiling == SEEDS_LOGGED_AT_CEILING
    return true_at_bound


def test_true_offset_in_bound_and_logged_ceiling_on_every_seed(monkeypatch):
    _assert_bound_on_every_seed(3 * units.MS, "batched", monkeypatch)


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_agree_on_every_seed(seed):
    digests = {
        backend: result_digest(_run(units.MS, seed, backend))
        for backend in ("scalar", "batched")
    }
    assert digests["scalar"] == digests["batched"]


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["batched", "scalar"])
def test_bound_on_every_seed_at_9ms(request, backend, monkeypatch):
    if request.config.getoption("markexpr") != "slow":
        pytest.skip("the 9 ms sweep runs under -m slow only")
    true_at_bound = _assert_bound_on_every_seed(9 * units.MS, backend, monkeypatch)
    assert true_at_bound == SEEDS_TRUE_AT_BOUND
