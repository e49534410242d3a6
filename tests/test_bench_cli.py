"""The ``repro bench`` subcommand: dispatch, discovery, file plumbing.

The measurements themselves are exercised (with real guards) by
``benchmarks/test_perf_core.py``; here the timed collection is stubbed so
the CLI contract — seed-core auto-discovery, atomic rewrite of
``BENCH_core.json``, ``--dry-run`` / ``--out`` — stays cheap to verify,
and nothing is timed.  The last block holds ``repro.bench.SECTIONS``, the
guard table and the committed record to one another, so the three cannot
drift apart unseen.
"""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.bench as bench
from repro.cli import main as repro_main
from repro.faultlab.scenarios import builtin_specs

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_find_seed_core_walks_up_from_repo():
    found = bench.find_seed_core(REPO_ROOT / "src" / "repro")
    assert found == REPO_ROOT / "benchmarks" / "_seed_core.py"


def test_find_seed_core_misses_outside_repo(tmp_path):
    assert bench.find_seed_core(tmp_path) is None


def test_load_seed_core_imports_module():
    module = bench.load_seed_core(REPO_ROOT / "benchmarks" / "_seed_core.py")
    assert hasattr(module, "SeedSimulator")
    assert hasattr(module, "seed_implementation")


@pytest.fixture
def stub_collect(monkeypatch):
    calls = {}

    def fake_collect(repeats, seed_core=None):
        calls["repeats"] = repeats
        calls["seed_core"] = seed_core
        return {"engine": {"events_per_sec": 1}}

    monkeypatch.setattr(bench, "collect", fake_collect)
    return calls


def test_bench_writes_out_path(stub_collect, tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    rc = repro_main(["bench", "--out", str(out), "--repeats", "2"])
    assert rc == 0
    assert stub_collect["repeats"] == 2
    assert json.loads(out.read_text()) == {"engine": {"events_per_sec": 1}}
    # The measurements also go to stdout.
    assert '"events_per_sec": 1' in capsys.readouterr().out


def test_bench_dry_run_writes_nothing(stub_collect, tmp_path):
    out = tmp_path / "BENCH.json"
    rc = repro_main(["bench", "--out", str(out), "--dry-run"])
    assert rc == 0
    assert not out.exists()


def test_bench_no_seed_skips_seed_core(stub_collect, tmp_path):
    repro_main(["bench", "--no-seed", "--dry-run"])
    assert stub_collect["seed_core"] is None


def test_bench_rejects_zero_repeats(stub_collect):
    with pytest.raises(SystemExit):
        repro_main(["bench", "--repeats", "0"])


# ----------------------------------------------------------------------
# bench.SECTIONS == BENCH_core.json == the guard table
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def record():
    return json.loads((REPO_ROOT / "BENCH_core.json").read_text())


@pytest.fixture
def guards(monkeypatch):
    # The guard module imports ``_seed_core`` by bare name, as pytest's
    # rootdir-relative sys.path gives it when run from ``benchmarks/``.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
    return bench.load_seed_core(REPO_ROOT / "benchmarks" / "test_perf_core.py")


def test_sections_are_the_record_keys(record):
    assert set(bench.SECTIONS) == set(record)
    assert len(bench.SECTIONS) == 7


def test_every_guard_names_a_recorded_ratio(record, guards):
    for section, key, op, bound, why in guards.GUARDS:
        assert isinstance(record[section][key], float), (section, key)
        assert op in (">=", "<=") and why
    # ... and nothing timed escapes the table: every other value in the
    # record is a count, a digest or a flag, which repeat exactly.
    named = {(section, key) for section, key, *_ in guards.GUARDS}
    for section, values in record.items():
        for key, value in values.items():
            assert (section, key) in named or isinstance(value, (int, str)), (section, key)


def test_advisory_budgets_are_held_on_recorded_counts(record, guards):
    # A ratio guard may only warn if its budget also stands on something exact.
    assert guards.ADVISORY == {
        ("observe", "tapped_over_traced"),
        ("fastpath", "refused_over_scalar"),
        ("startup", "fig6_dtp_import_over_interpreter"),
        ("startup", "campaign_import_over_interpreter"),
    } and guards.ADVISORY <= {(section, key) for section, key, *_ in guards.GUARDS}
    tap = record["observe"]
    assert (tap["snapshots_emitted"], tap["tap_flushes"]) == (20, 2)
    assert record["fastpath"]["refused_coordinator_built"] is False
    # The import walls stand on the module and byte counts, held as ceilings.
    assert guards.CEILINGS == {
        ("startup", f"{key}_{count}")
        for key in bench.STARTUP_IMPORTS for count in ("modules", "source_bytes")
    }
    assert all(isinstance(record[section][key], int) for section, key in guards.CEILINGS)


def test_startup_records_each_entry_point(record):
    assert set(record["startup"]) == {
        f"{key}_{metric}"
        for key in bench.STARTUP_IMPORTS
        for metric in ("modules", "source_bytes", "import_over_interpreter")
    }
    assert list(bench.STARTUP_IMPORTS.values()) == [
        "repro.experiments.fig6_dtp", "repro.faultlab.campaign",
    ]


def test_checker_is_guarded_at_both_ends_of_topology_size(record, guards):
    # The fabric (pairs dominate) and a four-node chain (fixed cost dominates).
    rows = {key: bound for section, key, _op, bound, _why in guards.GUARDS if section == "checker"}
    assert rows == {"brute_force_over_screened": 50, "chain_brute_force_over_settled": 2.0}
    assert set(record["checker"]) == set(rows) | {
        "nodes", "checks_run", "pairs_checked", "result_digest",
    }
    (chain_spec,) = builtin_specs([bench.CHECKER_CHAIN_BUILTIN])
    assert chain_spec["topology"] == {"kind": "chain", "hosts": 4} and not chain_spec["faults"]
    parameters = inspect.signature(bench.checker_run).parameters
    assert list(parameters) == ["brute_force", "spec"]
    assert parameters["spec"].default is bench.CHECKER_SPEC


def test_fastpath_records_a_refused_and_a_faulted_case(record):
    assert set(record["fastpath"]) == {
        "chain_events", "chain_directions_promoted", "chain_speedup_vs_scalar",
        "traced_chain_records", "traced_chain_directions_promoted",
        "traced_chain_speedup_vs_scalar", "fig6a_speedup_vs_scalar",
        "fig6a_bit_identical_to_scalar", "fig6a_peak_virtual_heap",
        "fig6a_directions_promoted", "refused_coordinator_built",
        "refused_over_scalar", "faulted_builtins_promoted",
    }
    # The refused case is a faulted builtin with parity on: a fault alone
    # no longer keeps a network off the coordinator.
    assert bench.FASTPATH_REFUSED_BUILTIN in bench.FASTPATH_FAULTED_BUILTINS
    assert record["fastpath"]["faulted_builtins_promoted"] == 6 + 3 + 4
    # The testbed's 11 links, both ways; queued captures wait outside the heap.
    assert record["fastpath"]["fig6a_directions_promoted"] == 22
    assert record["fastpath"]["fig6a_peak_virtual_heap"] <= 5 * 22


def test_record_holds_no_raw_timing(record):
    raw = re.compile(r"wall|_s$|_ms$|per_sec")
    assert not [
        (section, key)
        for section, values in record.items()
        for key in values
        if raw.search(key)
    ]
    assert record["fig6a"]["output_digest"].startswith("7c294cfa")
    assert record["checker"]["result_digest"].startswith("3e29e332")


def test_bench_help_has_no_shard_acceptance(capsys):
    with pytest.raises(SystemExit) as exit_info:
        repro_main(["bench", "--help"])
    assert exit_info.value.code == 0
    assert "shard" not in capsys.readouterr().out


def test_collect_signature_and_section_loop(monkeypatch):
    parameters = inspect.signature(bench.collect).parameters
    assert list(parameters) == ["repeats", "seed_core"]
    assert parameters["seed_core"].default is None
    calls = []
    monkeypatch.setattr(
        bench, "SECTIONS",
        {"a": lambda *args: calls.append(args) or {"x": 1}, "b": lambda *args: {"y": 2}},
    )
    assert bench.collect(4, seed_core="seed") == {"a": {"x": 1}, "b": {"y": 2}}
    assert calls == [(4, "seed")]


def test_interleaved_takes_the_median_of_adjacent_pairs():
    order = []
    base_walls = iter([9.0, 1.0, 2.0, 4.0])     # first of each is the warm-up
    variant_walls = iter([9.0, 3.0, 2.0, 20.0])

    def side(name, walls):
        def run():
            order.append(name)
            return "same", next(walls), name
        return run

    ratio, base_run, variant_run = bench.interleaved(
        side("base", base_walls), side("variant", variant_walls), 3, "the variant"
    )
    assert ratio == 3.0                          # median of 3/1, 2/2, 20/4
    assert (base_run, variant_run) == (("same", 4.0, "base"), ("same", 20.0, "variant"))
    # Warm-up, then pairs that swap which side goes first.
    assert order == ["base", "variant"] + ["base", "variant", "variant", "base", "base", "variant"]


def test_interleaved_refuses_differing_outputs():
    with pytest.raises(AssertionError, match="tracing changed the output"):
        bench.interleaved(lambda: ("a", 1.0), lambda: ("b", 1.0), 1, "tracing")


def test_src_repro_imports_leave_numpy_out():
    # Every module, by name: a package import alone loads none of them.
    code = (
        "import importlib, pkgutil, sys, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
