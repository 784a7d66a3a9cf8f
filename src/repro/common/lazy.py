"""Packages whose public names load their submodule on first access.

A package ``__init__`` that imports every submodule makes each importer
pay for all of them: the batch engines import one small module of
:mod:`repro.analysis.sanitizer` and would otherwise load the whole static
analyzer.  :func:`lazy_exports` builds the package's module-level
``__getattr__`` (PEP 562) instead, so ``from repro.analysis import
Diagnostic`` imports ``analysis.diagnostics`` and none of the passes.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, submodules: Dict[str, str]
) -> Tuple[Callable[[str], Any], List[str]]:
    """A module ``__getattr__`` for ``package`` and its sorted ``__all__``.

    ``submodules`` maps each submodule to the space-separated public names
    it defines; it is the package's one runtime list of exports.  Looking
    one of those names up on the package imports that submodule
    (``sys.modules`` keeps it) and returns the name from it; any other name
    raises :class:`AttributeError`, so ``from package import submodule``
    still falls back to importing the submodule.
    """
    owners = {
        name: module for module, names in submodules.items() for name in names.split()
    }

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f"{package}.{module}"), name)

    return __getattr__, sorted(owners)
