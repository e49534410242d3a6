"""What a fresh process loads: lazy package tables and import-closure guards.

Every package ``__init__`` re-exports through a lazy table
(:mod:`repro._lazy`), so importing a module compiles that module's own
imports and nothing its package merely lists.  The first block holds each
table to the submodules it names; the second runs imports in a new
interpreter that writes no bytecode (:func:`repro.bench.fresh_import`) and
fails by module name when an import drags in a package it does not use.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.bench import fresh_import

PACKAGES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_the_object_its_submodule_holds(name):
    package = importlib.import_module(name)
    submodules = [
        importlib.import_module(f"{name}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    listed = dir(package)
    # ``__version__`` is the one name a package binds itself.
    for export in (e for e in package.__all__ if not e.startswith("__")):
        value = getattr(package, export)
        if inspect.ismodule(value):
            assert value.__name__ == f"{name}.{export}", export
        else:
            assert any(vars(sub).get(export) is value for sub in submodules), export
        assert export in listed, export


def test_a_package_imports_no_submodule_until_a_name_is_used():
    _, _, loaded = fresh_import("import repro.telemetry, repro.faultlab")
    assert set(loaded) == {"repro", "repro._lazy", "repro.telemetry", "repro.faultlab"}
    _, _, loaded = fresh_import("from repro.telemetry import Telemetry")
    assert "repro.telemetry.bundle" in loaded and "repro.telemetry.index" not in loaded


def _packages_in(loaded, packages):
    return sorted(
        name for name in loaded if any(name == p or name.startswith(p + ".") for p in packages)
    )


def test_import_repro_and_the_command_load_only_the_helper():
    assert set(fresh_import("import repro")[2]) == {"repro", "repro._lazy"}
    assert set(fresh_import("import repro.cli")[2]) == {"repro", "repro._lazy", "repro.cli"}
    _, _, loaded = fresh_import("from repro.cli import main; main(['--help'])")
    assert set(loaded) == {"repro", "repro._lazy", "repro.cli"}


#: Packages no Fig. 6a process needs: the baselines and the supervisor.
_NOT_FIG6A = [
    "repro.ptp", "repro.ntp", "repro.gps", "repro.apps", "repro.shard", "repro.insight",
    "repro.resilience.journal", "repro.resilience.supervisor",
]


def test_an_experiment_command_compiles_only_its_own_experiment():
    # The chooser's table imports each experiment when its command runs:
    # `repro fig6a --help` compiles none, and a run compiles what
    # fig6_dtp itself imports and no other experiment.
    _, _, loaded = fresh_import(
        "from repro.cli import main\ntry:\n    main(['fig6a', '--help'])\n"
        "except SystemExit:\n    pass"
    )
    assert _packages_in(loaded, ["repro.experiments"]) == [
        "repro.experiments", "repro.experiments.cli", "repro.experiments.parallel",
    ]
    assert not _packages_in(loaded, ["repro.dtp", "repro.sim.engine"] + _NOT_FIG6A)
    _, _, own = fresh_import("import repro.experiments.fig6_dtp")
    _, _, loaded = fresh_import("from repro.cli import main; main(['fig6a', '--quick'])")
    assert _packages_in(loaded, ["repro.experiments"]) == sorted(
        _packages_in(own, ["repro.experiments"])
        + ["repro.experiments.cli", "repro.experiments.parallel"]
    )
    assert not _packages_in(loaded, _NOT_FIG6A)


def test_fig6_dtp_loads_no_baseline_or_campaign_machinery():
    _, _, loaded = fresh_import("import repro.experiments.fig6_dtp")
    assert not _packages_in(loaded, [
        "repro.ptp", "repro.ntp", "repro.gps", "repro.apps", "repro.shard",
        "repro.insight", "repro.resilience",
    ])


def test_an_unsupervised_campaign_loads_no_supervisor_or_journal():
    _, _, loaded = fresh_import(
        "from repro.faultlab.campaign import run_campaign\n"
        "from repro.faultlab.scenarios import builtin_specs\n"
        "run_campaign(builtin_specs(['baseline'], quick=True))"
    )
    assert "repro.faultlab.campaign" in loaded
    assert not _packages_in(loaded, ["repro.resilience"])
    # The command parses the supervision flags, so it loads their module
    # (``repro.resilience.cli``) and nothing they would run.
    _, _, loaded = fresh_import(
        "from repro.cli import main; main(['faultlab', '--quick', 'baseline'])"
    )
    assert "repro.faultlab.campaign" in loaded
    assert not _packages_in(
        loaded, ["repro.resilience.supervisor", "repro.resilience.journal"]
    )


def test_the_campaign_loads_no_shard_insight_or_baseline():
    _, _, loaded = fresh_import("import repro.faultlab.campaign")
    assert not _packages_in(loaded, [
        "repro.shard", "repro.insight", "repro.ptp", "repro.ntp",
    ])
