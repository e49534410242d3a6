"""Every ``src/repro`` module is reachable from the ``repro`` command, or named.

The static import graph counts module- and function-level imports
(relative ones resolved), the submodules a package's ``_LAZY`` table
names, and the ``"module:function"`` targets of ``repro.cli``'s
``COMMANDS`` and ``EXPERIMENTS``.  A module nothing in the command's
closure reaches must say who calls it in :data:`EXTERNAL_CALLERS`, or it
belongs in ``tests/`` (as the wire model does) or nowhere.
"""

import ast
from pathlib import Path

from repro import cli

SRC = Path(__file__).resolve().parent.parent / "src"
ROOTS = ("repro.cli", "repro.__main__")

#: ``module -> caller``: an ``examples/`` script, or "test-only: <reason>".
EXTERNAL_CALLERS = {
    "repro.apps": "examples/owd_measurement.py",
    "repro.apps.owd": "examples/owd_measurement.py",
    "repro.apps.tdma": "examples/tdma_scheduling.py",
    "repro.ptp.bmc": (
        "test-only: the IEEE 1588 best-master election the PTP baseline"
        " assumes settled (tests/test_ptp_bmc_boundary.py)"
    ),
    "repro.scenarios": (
        "test-only: one-line named setups the tests build"
        " (tests/test_scenarios_cli.py, tests/test_run_options.py)"
    ),
}


def _modules():
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            modules[".".join(parts[:-1])] = (path, True)
        else:
            modules[".".join(parts)] = (path, False)
    return modules


def _with_parents(name, modules):
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)} & set(modules)


def _imports(name, path, is_package, modules):
    """Modules the file at ``path`` (module ``name``) imports, lazily or not."""
    package = name if is_package else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= _with_parents(alias.name, modules)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found |= _with_parents(base, modules)
            for alias in node.names:
                found |= _with_parents(f"{base}.{alias.name}", modules)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            for value in node.value.values:
                found |= _with_parents(f"{name}.{value.value}", modules)
    return found - {name}


def _graph():
    modules = _modules()
    graph = {name: _imports(name, *entry, modules) for name, entry in modules.items()}
    targets = [target for target, _ in cli.COMMANDS.values()] + [cli.EXPERIMENTS]
    graph["repro.cli"] |= {
        module
        for target in targets
        for module in _with_parents(target.partition(":")[0], modules)
    }
    return modules, graph


def _closure(graph, roots):
    seen, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph[name])
    return seen


def test_every_module_is_reachable_or_named():
    modules, graph = _graph()
    unexplained = set(modules) - _closure(graph, ROOTS) - set(EXTERNAL_CALLERS)
    assert sorted(unexplained) == []


def test_no_module_imports_test_support():
    for name, (path, _) in _modules().items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported = [node.module]
            else:
                continue
            assert not any(m.split(".")[0] == "tests" for m in imported), name


def test_every_named_module_has_that_caller_only():
    modules, graph = _graph()
    reachable = _closure(graph, ROOTS)
    for module, caller in EXTERNAL_CALLERS.items():
        assert module in modules
        assert module not in reachable
        assert caller.startswith(("examples/", "test-only: "))
        if caller.startswith("examples/"):
            script = SRC.parent / caller
            imported = _imports("__main__", script, False, modules)
            assert module in _closure(graph, imported), (module, caller)
