"""Every ``src/repro`` module and public definition has a caller, or is named.

Modules: the static import graph counts module- and function-level imports
(relative ones resolved), the submodules a package's ``_LAZY`` table
names, and the ``"module:function"`` targets of ``repro.cli``'s
``COMMANDS`` and ``EXPERIMENTS``.  A module nothing in the command's
closure reaches must say who calls it in :data:`EXTERNAL_CALLERS`, or it
belongs in ``tests/`` (as the wire model does) or nowhere.

Names: every public module-level function and class, and every public
method of such a class, needs a word reference in the code of
``src/repro``, ``examples/`` or ``e2e_bench/`` — an identifier or a word
of a string literal; comments and docstrings do not count — that is not
inside a definition of that name (its ``def`` / ``class`` line and its
own body: a ``__repr__`` f-string, an error message, a call to a
same-named method) and not a package ``__init__``'s ``_LAZY`` /
``__all__`` re-export.  Otherwise :data:`NO_CALLER_REASONS` names it with
one of three reasons.  A test calling it is not one.  The scan reads
words, not bindings, so:

* it passes a dead name that shares its word with a live one (two classes'
  ``render``), or that an error message or other string mentions;
* it counts a name reached through a registry or ``getattr`` dispatch
  when the key is a literal, since the string is a word too
  (``cli.COMMANDS``'s ``"module:function"`` targets, which
  ``cli.main`` resolves with ``getattr``);
* it would flag a name reached only through a *computed* string
  (``getattr(obj, "on_" + kind)``).  None exists today; such a name
  needs a literal reference.

Options: every key a scenario spec may carry (``campaign._SPEC_KEYS``)
must be set, and every fault kind (``FAULT_KINDS``) named, by a spec that
something outside ``tests/`` builds — a registered scenario at either size,
or the benchmark's checker fabric.  This pass evaluates those specs; it
reads no words.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

from repro import cli

SRC = Path(__file__).resolve().parent.parent / "src"
ROOTS = ("repro.cli", "repro.__main__")

#: ``module -> caller``: an ``examples/`` script, or "test-only: <reason>".
EXTERNAL_CALLERS = {
    "repro.apps": "examples/owd_measurement.py",
    "repro.apps.owd": "examples/owd_measurement.py",
    "repro.apps.tdma": "examples/tdma_scheduling.py",
}

#: The directories whose words count as callers of a ``src/repro`` name.
CALLER_DIRS = ("src/repro", "examples", "e2e_bench")

_SPEC = (
    "executable spec: PAPER.md §3.3's bound formulas, which"
    " tests/test_dtp_analysis.py and tests/test_dtp_faults.py hold the"
    " simulation to"
)
_KEPT = (
    "kept: the daemon's rate estimate, which tests/test_dtp_daemon.py reads"
    " (ROADMAP item 8 keeps it)"
)
#: The only reasons a public definition may go without a caller.  A
#: reference implementation is named with the test that compares against it.
ALLOWED_REASONS = (_SPEC, _KEPT, "reference implementation: ")

#: ``"module:qualname" -> reason`` for public definitions with no caller.
NO_CALLER_REASONS = {
    "repro.dtp.analysis:direct_bound_ns": _SPEC,
    "repro.dtp.analysis:network_bound_ns": _SPEC,
    "repro.dtp.analysis:end_to_end_bound_ns": _SPEC,
    "repro.dtp.analysis:safe_beacon_interval_ticks": _SPEC,
    "repro.dtp.analysis:OwdErrorAnalysis.never_overestimates": _SPEC,
    "repro.dtp.analysis:runaway_skews": _SPEC,
    "repro.dtp.analysis:expected_partition_divergence_ticks": _SPEC,
    "repro.dtp.daemon:DtpDaemon.estimated_frequency_ratio": _KEPT,
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


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions():
    """``{"module:qualname": (path, line)}`` for every name the guard covers."""
    found = {}
    for name, (path, _) in _modules().items():
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFS):
                continue
            if not node.name.startswith("_"):
                found[f"{name}:{node.name}"] = (path, node.lineno)
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, _DEFS[:2]) and not method.name.startswith("_"):
                        key = f"{name}:{node.name}.{method.name}"
                        found[key] = (path, method.lineno)
    return found


def _caller_text(path):
    """The file's text, less a package ``__init__``'s re-export tables."""
    text = path.read_text()
    if path.name != "__init__.py":
        return text
    lines = text.splitlines()
    for node in ast.parse(text).body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id in ("_LAZY", "__all__") for t in targets):
            lines[node.lineno - 1 : node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1
            )
    return "\n".join(lines)


#: String-literal tokens; Python 3.12 splits an f-string into pieces,
#: whose literal text is the ``FSTRING_MIDDLE`` token.
_STRINGS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _code_words(text, tree):
    """``(word, line)`` for every identifier and every word of a string
    literal in ``text``, skipping comments and docstrings."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.add((first.lineno, first.col_offset))
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME:
            yield token.string, token.start[0]
        elif token.type in _STRINGS and token.start not in docstrings:
            for word in _WORD.findall(token.string):
                yield word, token.start[0]


def _references():
    """Word counts over the code of :data:`CALLER_DIRS`, less each
    definition's uses of its own name inside its own lines (hidden
    directories, such as a benchmark's scratch copies, are skipped)."""
    words = Counter()
    for directory in CALLER_DIRS:
        for path in sorted((SRC.parent / directory).rglob("*.py")):
            if any(part.startswith(".") for part in path.relative_to(SRC.parent).parts):
                continue
            text = _caller_text(path)
            tree = ast.parse(text)
            lines = {}
            for word, line in _code_words(text, tree):
                words[word] += 1
                lines.setdefault(line, []).append(word)
            for node in ast.walk(tree):
                if isinstance(node, _DEFS):
                    words[node.name] -= sum(
                        lines.get(line, []).count(node.name)
                        for line in range(node.lineno, node.end_lineno + 1)
                    )
    return words


def _callerless():
    references = _references()
    return {
        key: where
        for key, where in _public_definitions().items()
        if references[key.partition(":")[2].rpartition(".")[2]] <= 0
    }


def test_every_public_name_has_a_caller_or_a_reason():
    unexplained = sorted(
        f"{path.relative_to(SRC.parent)}:{line} {key}"
        for key, (path, line) in _callerless().items()
        if key not in NO_CALLER_REASONS
    )
    assert unexplained == []


def test_every_reason_is_allowed_and_still_needed():
    callerless = _callerless()
    for key, reason in NO_CALLER_REASONS.items():
        assert reason.startswith(ALLOWED_REASONS), key
        assert key in callerless, f"{key} has a caller now (or is gone): drop its entry"


def _specs_with_a_caller():
    """Every scenario spec a run outside ``tests/`` builds: each registered
    scenario at both sizes, and the benchmark's checker fabric."""
    from repro import bench
    from repro.faultlab import scenarios

    names = [
        *scenarios.BUILTIN_SCENARIOS,
        *scenarios.FABRIC_SCENARIOS,
    ]
    return [
        *scenarios.builtin_specs(names, quick=True),
        *scenarios.builtin_specs(names, quick=False),
        bench.CHECKER_SPEC,
    ]


def test_every_spec_key_and_fault_kind_has_a_setter():
    """Options, not words: a spec key no such spec sets, or a fault kind
    none names, is an option only tests exercise."""
    from repro.faultlab.campaign import _SPEC_KEYS
    from repro.faultlab.faults import FAULT_KINDS

    specs = _specs_with_a_caller()
    set_keys = {key for spec in specs for key in spec}
    named_kinds = {fault["kind"] for spec in specs for fault in spec.get("faults", ())}
    unset = sorted(_SPEC_KEYS - set_keys)
    unnamed = sorted(set(FAULT_KINDS) - named_kinds)
    assert (unset, unnamed) == ([], [])
