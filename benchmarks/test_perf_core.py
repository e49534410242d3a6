"""Guards over ``repro.bench.collect``; writes ``BENCH_core.json``.

Every measurement lives in :mod:`repro.bench` (also behind ``repro bench``),
whose docstring says why these numbers are here and not in ``e2e_bench``.
One module-scoped ``collect()`` feeds two tests:

* ``test_bench_identities`` — everything in the record that is not a timing
  ratio (digests, counts, ``bit_identical_*`` flags) repeats exactly on any
  host, so it must equal the committed ``BENCH_core.json``, except the
  :data:`CEILINGS`, which may fall but not rise; the snapshot taps' 5%
  budget is held here, on write counts.
  Blocking in CI.  Only after it holds is the record rewritten: a run that
  changed an experiment byte cannot overwrite it (``repro bench`` is the
  deliberate way).
* ``test_bench_ratio_guards`` — the :data:`GUARDS` table, every row
  evaluated and every failure reported (rows in :data:`ADVISORY` warn
  instead).  Advisory on shared runners.

    PYTHONPATH=src python -m pytest benchmarks/test_perf_core.py -q -s
"""

from __future__ import annotations

import json
import operator
import warnings
from pathlib import Path

import pytest

from repro.bench import collect
from repro.ioutil import atomic_write_text
from repro.observe.snapshots import DEFAULT_FLUSH_EVERY

import _seed_core

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: (section, key, comparison, bound, why the bound sits there).  Each ratio is
#: the median of nine interleaved same-process pairs.  One A/A pair (Fig. 6a
#: against itself) reads 0.97-1.03 between its quartiles on the 2-CPU reference
#: host and their median of nine 0.96-1.05, so a budget closer than that to
#: the typical reading cannot hold three runs in a row (see :data:`ADVISORY`).
GUARDS = [
    ("engine", "speedup_vs_seed", ">=", 1.5,
     "reads 2.1-2.3; much of the workload is the Python callback, which dilutes the heap win"),
    ("fig6a", "speedup_vs_seed", ">=", 2.4,
     "the acceptance bar of the core rewrite; 2.64-3.14 over ten min/min recordings and "
     "2.67-2.9 as a median of pairs on the 2-CPU reference host (3.29 once): host-dependent, "
     "so the floor sits 10% under the lowest reading, not at the first one recorded"),
    ("telemetry", "traced_over_untraced", "<=", 1.6,
     "hooks ~1.15-1.2 plus digest ~0.15 on a full 65,536-record ring, reads 1.07-1.42; ~2.0 "
     "when the digest was a json.dumps per record (docs/OBSERVABILITY.md, 'What tracing costs')"),
    ("fastpath", "chain_speedup_vs_scalar", ">=", 1.6,
     "reads 2.3-2.5 where nearly everything promotes, 2.7 once PLAN, CAPTURE and APPLY carry "
     "their tick; exact equivalence (mirrored sequence numbers, scalar re-execution of "
     "irregular intervals) caps the win in CPython"),
    ("fastpath", "traced_chain_speedup_vs_scalar", ">=", 1.5,
     "the same chain with the coordinator emitting the scalar path's records (equal "
     "trace_digest): reads 2.1-2.25, 2.6 with carried ticks, the record calls being the same "
     "cost on both sides"),
    ("fastpath", "fig6a_speedup_vs_scalar", ">=", 1.25,
     "reads 1.8-2.1 on the saturated testbed, 2.5 with carried ticks, where traffic keeps the "
     "merged heap busy; 2.54 with queued captures, which this 2 ms run barely has (its LOGs "
     "start at 2 ms: fig6a_peak_virtual_heap is counted over 9 ms); untraced, so it also "
     "holds the coordinator's `record is not None` tests to nothing"),
    ("fastpath", "refused_over_scalar", "<=", 1.05,
     "a scenario in which no direction may batch builds no coordinator and runs the inherited "
     "loops: an A/A pair but for the engine class, reads 0.99-1.03; 1.07-1.17 when every "
     "beacon of every refused port re-walked the eligibility checks"),
    ("observe", "tapped_over_traced", "<=", 1.05,
     "the budget docs/OBSERVABILITY.md states; reads 0.91-1.12 in ten fresh processes, "
     "all but an A/A control: the tap's work is 20 events in 142,601"),
    ("checker", "brute_force_over_screened", ">=", 50,
     "a settled tick is O(nodes + edges), ~1 ms against ~140 ms of brute force: reads 113-140; "
     "the per-tick pair walk the screen replaced read ~12"),
    ("checker", "chain_brute_force_over_settled", ">=", 2.0,
     "the `baseline` builtin, four nodes: no pairs to save, so a settled tick is fixed cost "
     "against a from-scratch tick of ~30 us: reads 2.3-2.6; 1.73-1.93 while every tick rebuilt "
     "the epoch signature and walked the nodes in five passes (docs/FAULTLAB.md)"),
    ("startup", "fig6_dtp_import_over_interpreter", "<=", 3.5,
     "a fresh interpreter importing the Fig. 6a experiment without bytecode, over one that "
     "imports nothing: reads 2.4-2.7 with 34 modules; 5.0 when every package __init__ imported "
     "its whole package (93 modules, docs/SIMULATION.md 'Start-up')"),
    ("startup", "campaign_import_over_interpreter", "<=", 4.5,
     "the same for the campaign runner: reads 3.6-3.8 with 44 modules; 5.8 with 103"),
]

#: Counts that may fall but not rise: the ``repro`` modules and source bytes a
#: fresh import of each entry point compiles.  A deliberate rise is recorded
#: with ``repro bench``.
CEILINGS = {
    ("startup", "fig6_dtp_modules"), ("startup", "fig6_dtp_source_bytes"),
    ("startup", "campaign_modules"), ("startup", "campaign_source_bytes"),
}

#: Rows whose budget is tighter than the A/A control resolves.  That budget is
#: held exactly in ``test_bench_identities`` (20 snapshots in 2 flushes; no
#: coordinator built); a wall-clock reading over
#: it warns, so a per-event cost that grew still shows, without failing one run
#: in two on noise.
ADVISORY = {
    ("observe", "tapped_over_traced"),
    ("fastpath", "refused_over_scalar"),
    ("startup", "fig6_dtp_import_over_interpreter"),
    ("startup", "campaign_import_over_interpreter"),
}

_COMPARE = {">=": operator.ge, "<=": operator.le}


def _deterministic(bench: dict) -> dict:
    """``bench`` without the keys :data:`GUARDS` or :data:`CEILINGS` name: what
    must repeat exactly."""
    skip = {(section, key) for section, key, *_ in GUARDS} | CEILINGS
    return {
        section: {k: v for k, v in values.items() if (section, k) not in skip}
        for section, values in bench.items()
    }


@pytest.fixture(scope="module")
def bench() -> dict:
    # collect() raises if two sides of any comparison disagree on their
    # output (seed core, traced, batched, tapped, brute force).
    measured = collect(seed_core=_seed_core)
    print()
    print(json.dumps(measured, indent=2))
    return measured


def test_bench_identities(bench):
    flags = {
        f"{section}.{key}": value
        for section, values in bench.items()
        for key, value in values.items()
        if "bit_identical" in key
    }
    assert len(flags) == 4 and all(flags.values()), flags
    assert bench["checker"]["pairs_checked"] == 19 * 56_280
    fastpath = bench["fastpath"]
    assert fastpath["chain_directions_promoted"] > 0
    assert fastpath["traced_chain_directions_promoted"] == fastpath["chain_directions_promoted"], (
        "tracing kept a direction on the scalar path"
    )
    assert not fastpath["refused_coordinator_built"], (
        "a run in which nothing can promote still built a FastpathCoordinator"
    )
    assert fastpath["faulted_builtins_promoted"] > 0, (
        "a fault that patches a port kept its whole network off the coordinator"
    )
    assert fastpath["fig6a_peak_virtual_heap"] <= 5 * fastpath["fig6a_directions_promoted"], (
        "Fig. 6a's virtual heap holds a direction's backlog: every sift pays for it"
    )
    tap = bench["observe"]
    assert 0 < tap["tap_flushes"] <= tap["snapshots_emitted"] // DEFAULT_FLUSH_EVERY + 1, (
        "the tap writes more often than once per flush batch"
    )
    if BENCH_PATH.exists():
        recorded = json.loads(BENCH_PATH.read_text())
        assert _deterministic(bench) == _deterministic(recorded), (
            "a digest or count moved; if that is intended, record it with `repro bench`"
        )
        risen = [
            f"{section}.{key} = {bench[section][key]} > {recorded[section][key]}"
            for section, key in sorted(CEILINGS)
            if bench[section][key] > recorded[section][key]
        ]
        assert not risen, (
            "a fresh process compiles more than recorded; if that is intended, record it "
            f"with `repro bench`: {risen}"
        )
    atomic_write_text(str(BENCH_PATH), json.dumps(bench, indent=2) + "\n")


def test_bench_ratio_guards(bench):
    failures = []
    for section, key, op, bound, why in GUARDS:
        if not _COMPARE[op](bench[section][key], bound):
            message = f"{section}.{key} = {bench[section][key]} (want {op} {bound}: {why})"
            if (section, key) in ADVISORY:
                warnings.warn(message)
            else:
                failures.append(message)
    assert not failures, "\n".join(failures)
