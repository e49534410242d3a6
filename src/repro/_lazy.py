"""Lazy package re-exports (PEP 562), the one idiom every ``__init__`` uses.

A package ``__init__`` imports nothing: it declares a ``{name: submodule}``
table and hands it to :func:`lazy_exports`.  The first access of a name
imports that one submodule and caches the value in the package's globals,
so later lookups are plain dict hits and never reach ``__getattr__``.  A
fresh process therefore compiles only the modules it runs, which matters
wherever bytecode is not cached (``PYTHONDONTWRITEBYTECODE``); the
"Start-up" section of docs/SIMULATION.md has the numbers and the guard.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` re-exporting ``table``.

    ``table`` maps each re-exported name to the submodule, relative to
    ``package``, that defines it; a name mapped to itself is that submodule.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{submodule}", package)
        value = module if submodule == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
